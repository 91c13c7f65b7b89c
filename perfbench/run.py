"""The repository benchmark: cold compile-and-simulate cells, end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
ops twice — untraced, then with spans around every layer — and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit, the op-tail percentile, the
statistics digests and the run's environment.  The details, and the spans
of a traced run, go to ``.perfbench_out/``.  See ``perfbench/README.md``.

Every time an end-to-end metric reports is in *reference seconds*: wall
time corrected for the speed of the CPU the work ran on, sampled while it
ran (``hostclock.py``), so that busy neighbours on a shared host do not
move the figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import ALLOWED, MAIN_CPU, HostClock, pin

#: end-to-end metrics (untraced run): name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rss_peak_mb": "MB",
}

#: per-layer metrics (traced run): name -> unit.  Times are self seconds
#: per op (``compile.s`` is inclusive); counts are totals over the traced ops.
PER_LAYER = {
    "fail_ratio": "ratio",
    "trace.ops": "count",
    "trace.overhead": "ratio",
    "frontend.s": "s/op",
    "frontend.calls": "count",
    "profiler.s": "s/op",
    "profiler.calls": "count",
    "profiler.distinct_ratio": "ratio",
    "squeezer.s": "s/op",
    "sir.verify_s": "s/op",
    "passes.s": "s/op",
    "isel.s": "s/op",
    "regalloc.s": "s/op",
    "regalloc.calls": "count",
    "regalloc.spills": "count",
    "layout.s": "s/op",
    "layout.code_size": "count",
    "compile.s": "s/op",
    "compile.calls": "count",
    "compile.distinct_ratio": "ratio",
    "predecode.s": "s/op",
    "predecode.hit_ratio": "ratio",
    "fold.s": "s/op",
    "execute.s": "s/op",
    "execute.insts": "count",
    "execute.ips": "1/s",
    "energy.s": "s/op",
    "harness.binary_hit_ratio": "ratio",
    "attribution.s": "s/op",
    "serve.pool_s": "s/op",
    "serve.http_s": "s/op",
    "serve.render_s": "s/op",
    "serve.hit_ratio": "ratio",
    "serve.executed": "count",
}

#: ambient knobs that would silently switch engine or compile strictness
GUARDED_ENV = ("REPRO_MACHINE_ENGINE", "REPRO_MACHINE_LEGACY", "REPRO_STRICT_COMPILE")
GUARDED_PREFIX = "REPRO_OOO_"

#: set-ups timed per run; setup_s is their median
SETUP_PROBES = 5

#: ops beyond the reported tail percentile
TAIL_BEYOND = 10

OUT_DIR = ".perfbench_out"


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_checkout(root: Path) -> None:
    """Import ``repro`` from this checkout's ``src/`` or refuse to run.

    Also points ``TMPDIR`` into ``.perfbench_out/`` so that nothing the
    run starts writes outside the checkout.
    """
    if not (root / "src" / "repro" / "__init__.py").is_file():
        _refuse(f"no src/repro under {root}: run from the root of a checkout")
    ambient = sorted(
        name
        for name in os.environ
        if name in GUARDED_ENV or name.startswith(GUARDED_PREFIX)
    )
    if ambient:
        _refuse(f"refusing to run with ambient knobs set: {', '.join(ambient)}")
    tmp = root / OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        _refuse(f"imported repro from {repro.__file__}, not from {root / 'src'}")


def _make(args):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, args.seconds, args.max_ops)


def _probe(args) -> None:
    """One set-up, for the parent to time: print ``ready``, tear down."""
    workload = _make(args)
    workload.setup()
    print("ready", flush=True)
    workload.teardown()


def _time_setups(args, root: Path) -> tuple:
    """Wall and reference seconds from process start to ``ready`` for each
    set-up probe.  A probe starts with every allowed CPU, as a run does,
    and pins itself; the clock samples the CPU it pins its main thread to."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.max_ops is not None:
        command += ["--max-ops", str(args.max_ops)]
    spans = []
    pin(None)
    try:
        with HostClock(MAIN_CPU) as clock:
            for _ in range(SETUP_PROBES):
                started = time.perf_counter()
                with subprocess.Popen(
                    command, cwd=root, stdout=subprocess.PIPE, text=True
                ) as probe:
                    for line in probe.stdout:
                        if line.strip() == "ready":
                            spans.append((started, time.perf_counter()))
                            break
                    probe.stdout.read()
                    if probe.wait(timeout=60) != 0:
                        raise RuntimeError(f"set-up probe exited {probe.returncode}")
    finally:
        pin(MAIN_CPU)
    if len(spans) != SETUP_PROBES:
        raise RuntimeError("a set-up probe never became ready")
    return [b - a for a, b in spans], [clock.seconds(a, b) for a, b in spans]


def _tail(latencies: list) -> dict:
    """The latency at the highest percentile with at least TAIL_BEYOND
    samples beyond it (the maximum when there are fewer samples)."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / len(ordered),
        "samples": len(ordered),
        "beyond": len(ordered) - rank,
    }


def _rss_peak_mb() -> tuple:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def _check(workload, ops: list, reference: dict) -> dict:
    from oracle import digest

    rows = workload.check(ops, reference)
    known = {cell: reference[cell] for cell in rows if cell in reference}
    return {"digest": digest(rows), "reference_digest": digest(known)}


def _environment(engines) -> dict:
    return {
        "engine": sorted(engines),
        "python": platform.python_version(),
        "nproc": len(ALLOWED),
        "cpu_count": os.cpu_count(),
    }


def _layer_metrics(tracer, ops, wall, wall_untraced, extra) -> dict:
    self_s, total_s, calls = tracer.self_times()
    n = max(len(ops), 1)
    counts = tracer.counts

    def per_op(layer):
        return self_s[layer] / n

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "trace.ops": len(ops),
        "trace.overhead": ratio(wall, wall_untraced),
        "frontend.s": per_op("frontend"),
        "frontend.calls": calls["frontend"],
        "profiler.s": per_op("profiler"),
        "profiler.calls": calls["profiler"],
        "profiler.distinct_ratio": ratio(
            len(tracer.distinct["profiler"]), calls["profiler"]
        ),
        "squeezer.s": per_op("squeezer"),
        "sir.verify_s": per_op("sir"),
        "passes.s": per_op("passes"),
        "isel.s": per_op("isel"),
        "regalloc.s": per_op("regalloc"),
        "regalloc.calls": calls["regalloc"],
        "regalloc.spills": counts["regalloc.spills"],
        "layout.s": per_op("layout"),
        "layout.code_size": counts["layout.code_size"],
        "compile.s": total_s["compile"] / n,
        "compile.calls": calls["compile"],
        "compile.distinct_ratio": ratio(
            len(tracer.distinct["compile"]), calls["compile"]
        ),
        "predecode.s": per_op("predecode"),
        "predecode.hit_ratio": ratio(
            counts["predecode.hits"], counts["predecode.runs"]
        ),
        "fold.s": per_op("fold"),
        "execute.s": per_op("execute"),
        "execute.insts": counts["execute.insts"],
        "execute.ips": ratio(counts["execute.insts"], self_s["execute"]),
        "energy.s": per_op("energy"),
        "harness.binary_hit_ratio": ratio(
            counts["harness.binary_hits"], calls["harness"]
        ),
        "attribution.s": per_op("attribution"),
        "serve.pool_s": total_s["serve.pool"] / n,
        "serve.http_s": 0.0,
        "serve.render_s": per_op("serve.render"),
        "serve.hit_ratio": 0.0,
        "serve.executed": 0,
    }
    if "stats" in extra:
        stats = extra["stats"]
        metrics["serve.hit_ratio"] = ratio(
            stats["cache_hits"] + stats["coalesced"], stats["reports"]
        )
        metrics["serve.executed"] = stats["executed"]
        non_pool = [
            op.latency
            - (tracer.pool_seconds.get(op.cell, 0.0) if op.source == "executed" else 0.0)
            for op in ops
        ]
        metrics["serve.http_s"] = sum(non_pool) / n
    return metrics


def _sanity(name: str, metrics: dict, ops: list) -> list:
    """The layer split each workload was chosen for; (text, held) pairs."""
    checks = []
    if name == "dse-sweep":
        for metric in ("compile.distinct_ratio", "profiler.distinct_ratio"):
            value = metrics[metric]
            checks.append((f"{metric} well below 1 (< 0.5; got {value:.3f})", value < 0.5))
    elif name == "input-sweep":
        op_time = sum(op.latency for op in ops) / max(len(ops), 1)
        sim = metrics["predecode.s"] + metrics["execute.s"] + metrics["fold.s"]
        share = sim / op_time if op_time else 0.0
        checks.append(
            (f"predecode + execute + fold > half of op time (got {share:.3f})", share > 0.5)
        )
    return checks


def _run(args, root: Path) -> dict:
    from oracle import load_reference
    from repro.arch.machine import default_engine

    reference = load_reference(args.workload, args.reference_dir)
    workload = _make(args)
    workload.setup()
    try:
        # the traced run's figures are raw seconds: no sampler beside them
        clock = HostClock(MAIN_CPU)
        with contextlib.nullcontext() if args.trace else clock:
            ops, wall = workload.run()
        detail = {"units": workload.units, "wall_s": wall}
        all_ops = list(ops)
        engines = {default_engine()}
        if args.trace:
            from tracer import Tracer

            workload.reset()
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_wall = workload.run(tracer=tracer)
                extra = {}
                if args.workload == "serve-mix":
                    extra["stats"] = workload.server_stats()
                    replayed = workload.replay(traced, tracer)
                    all_ops += replayed
            finally:
                tracer.uninstall()
            engines = tracer.engines or engines
            all_ops += traced
    finally:
        workload.teardown()
    rss_self, rss_children = _rss_peak_mb()

    checked = _check(workload, all_ops, reference)
    failed = [op for op in all_ops if op.error]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(engines),
        "ops": len(ops),
        "attempted": len(all_ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(all_ops),
        "failures": [f"{op.cell}: {op.error}" for op in failed[:20]],
        "notes": list(workload.notes),
        **checked,
        **detail,
    }
    if args.trace:
        metrics = _layer_metrics(tracer, traced, traced_wall, wall, extra)
        metrics["fail_ratio"] = result["fail_ratio"]
        result["sanity"] = [
            {"check": text, "held": held}
            for text, held in _sanity(args.workload, metrics, traced)
        ]
        result["spans"] = tracer.spans
    else:
        latencies = [clock.seconds(op.start, op.end) for op in ops]
        result["op_tail"] = _tail(latencies)
        result["setup_wall_s"], result["setup_samples_s"] = _time_setups(args, root)
        result["ref_s"] = clock.seconds(*workload.span)
        result["clock"] = {
            "cpu": clock.cpu,
            "samples": len(clock.times),
            "median_factor": statistics.median(clock.factors),
        }
        metrics = {
            "setup_s": statistics.median(result["setup_samples_s"]),
            "ops_per_s": len(ops) / result["ref_s"],
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": result["op_tail"]["value"],
            "rss_peak_mb": rss_self + rss_children,
        }
        result["rss_peak_parts_mb"] = {"self": rss_self, "children": rss_children}
        result["op_latencies_s"] = [
            [op.cell, op.latency, ref] for op, ref in zip(ops, latencies)
        ]
    units = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    return result


def _report(result: dict, root: Path) -> None:
    env = result["environment"]
    print(
        f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
        f"{result['ops']} ops in {result['units']} unit(s), {result['wall_s']:.3f} s wall"
        + (f" ({result['ref_s']:.3f} reference s)" if "ref_s" in result else "")
        + "; "
        f"engine={','.join(env['engine'])} python={env['python']} nproc={env['nproc']}"
    )
    for name, metric in result["metrics"].items():
        line = f"  {name} = {metric['value']:.6g} {metric['unit']}"
        if name == "op_tail_s":
            tail = result["op_tail"]
            line += (
                f"  (p{tail['percentile']:.1f} of {tail['samples']} samples, "
                f"{tail['beyond']} beyond)"
            )
        print(line)
    print(
        f"  ops failed: {result['failed']}/{result['attempted']} "
        f"(fail_ratio {result['fail_ratio']:.6g})"
    )
    same = result["digest"] == result["reference_digest"]
    print(
        f"  stats digest {result['digest'][:16]} "
        f"{'==' if same else '!='} reference {result['reference_digest'][:16]}"
    )
    for note in result["notes"]:
        print(f"  {note}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for check in result.get("sanity", []):
        verdict = "held" if check["held"] else (
            "NOT HELD: the workload is not doing the job it was chosen for"
        )
        print(f"  sanity {check['check']}: {verdict}")
    out = root / OUT_DIR / (
        f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    )
    out.write_text(json.dumps(result) + "\n")
    print(f"  details: {out.relative_to(root)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dse-sweep", "input-sweep", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="cap the run at this many ops (smoke test)")
    parser.add_argument("--reference-dir", default=None,
                        help="read reference rows from here (smoke test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    _prepare_checkout(root)
    pin(MAIN_CPU)
    if args.setup_probe:
        _probe(args)
        return 0
    _report(_run(args, root), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
