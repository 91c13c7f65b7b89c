"""Spans around the public entry of each layer, installed from outside.

``Tracer.install`` wraps each layer's entry point and patches the wrapper
into every loaded ``repro`` module namespace that holds the original —
the defining module and each module that imported the name directly
(``repro.core.pipeline.select_module``, for instance) — and onto the
class for methods.  ``uninstall`` restores every original.  Nothing in
``src/`` changes.

A span is ``[layer, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the id of the op that was
running.  Spans stay in memory and are written out when the run ends.  A
span's *self time* is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict

#: (layer, module, attribute) — the public entries timed per layer
LAYERS = (
    ("frontend", "repro.passes.expander", "build_module"),
    ("profiler", "repro.profiler.profile", "BitwidthProfile.collect"),
    ("squeezer", "repro.profiler.selection", "compute_squeeze_plan"),
    ("squeezer", "repro.passes.squeezer", "squeeze_function"),
    ("sir", "repro.sir.verifier", "verify_sir_function"),
    ("passes", "repro.passes.cfg_prep", "prepare_cfg_module"),
    ("passes", "repro.passes.opt", "run_speculative_opts"),
    ("passes", "repro.passes.dce", "eliminate_dead_code"),
    ("passes", "repro.passes.simplify", "simplify_function"),
    ("passes", "repro.passes.simplify", "simplify_module"),
    ("isel", "repro.backend.isel", "select_module"),
    ("regalloc", "repro.backend.regalloc", "RegisterAllocator.run"),
    ("layout", "repro.backend.layout", "link_program"),
    ("compile", "repro.core.pipeline", "compile_binary"),
    ("predecode", "repro.arch.predecode", "predecode"),
    ("fold", "repro.arch.predecode", "fold_result"),
    ("execute", "repro.arch.machine", "Machine.run"),
    ("energy", "repro.arch.energy", "compute_energy"),
    ("harness", "repro.eval.harness", "get_binary"),
    ("attribution", "repro.obs.attribution", "attribute"),
    ("attribution", "repro.obs.attribution", "check_conservation"),
    ("serve.render", "repro.serve.server", "canonical_body"),
    ("serve.pool", "repro.serve.pool", "WorkerPool.execute"),
)



def binary_content_hash(binary) -> str:
    """SHA-256 over the linked image alone.

    ``CompiledBinary.fingerprint()`` also folds in the whole config hash,
    including cache-geometry and DTS knobs compilation never reads, so it
    cannot show two compiles that produced the same image.
    """
    linked = binary.linked
    h = hashlib.sha256()
    h.update(f"{linked.isa};{linked.delta};{linked.slice_width};".encode())
    for inst in linked.insts:
        h.update(repr(inst).encode())
        h.update(b"\n")
    return h.hexdigest()


def profile_content_hash(profile) -> str:
    return hashlib.sha256(repr(sorted(profile.stats.items())).encode()).hexdigest()


class Tracer:
    """Collects spans, counters and distinct-output sets for one run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        #: id of the op in progress (set by the workload's run loop)
        self.op = None
        self.counts: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self.engines: set = set()
        #: serve: request key -> seconds in WorkerPool.execute
        self.pool_seconds: dict = {}
        #: id(linked) -> (weak ref to it, narrow_rf values predecoded)
        self._predecoded: dict = {}
        self._restore: list = []

    # -- span recording --------------------------------------------------------

    def _wrap(self, layer: str, fn, pre=None, post=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args) if pre is not None else None
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(token, args, result)
            return result

        return wrapper

    def _wrap_async(self, layer: str, fn):
        """Async entries interleave on the event loop: no parent tracking."""

        @functools.wraps(fn)
        async def wrapper(pool, canonical, key):
            start = time.perf_counter()
            try:
                return await fn(pool, canonical, key)
            finally:
                end = time.perf_counter()
                self.spans.append([layer, start, end, -1, key])
                self.pool_seconds[key] = end - start

        return wrapper

    # -- per-layer hooks -------------------------------------------------------

    def _pre_compile(self, _args):
        self.counts["compile.started"] += 1

    def _post_compile(self, _token, _args, binary):
        self.distinct["compile"].add(binary_content_hash(binary))

    def _post_profile(self, _token, _args, profile):
        self.distinct["profiler"].add(profile_content_hash(profile))

    def _post_regalloc(self, _token, _args, stats):
        self.counts["regalloc.spills"] += stats.spilled_vregs

    def _post_layout(self, _token, _args, linked):
        self.counts["layout.code_size"] += linked.code_size

    def _pre_predecode(self, args):
        """Count engine runs whose image was already predecoded.

        Only calls made directly under ``Machine.run`` count: attribution
        also looks the predecoded image up, once per pc.
        """
        if not self.stack or self.spans[self.stack[-1]][0] != "execute":
            return
        self.counts["predecode.runs"] += 1
        linked, narrow_rf = args[0], args[1]
        entry = self._predecoded.get(id(linked))
        if entry is None or entry[0]() is not linked:
            entry = self._predecoded[id(linked)] = (weakref.ref(linked), set())
        if narrow_rf in entry[1]:
            self.counts["predecode.hits"] += 1
        entry[1].add(narrow_rf)

    def _pre_execute(self, args):
        self.engines.add(args[0].resolve_engine())

    def _post_execute(self, _token, _args, result):
        self.counts["execute.insts"] += getattr(result, "instructions", 0)

    def _pre_get_binary(self, _args):
        return self.counts["compile.started"]

    def _post_get_binary(self, compiles_before, _args, _binary):
        if self.counts["compile.started"] == compiles_before:
            self.counts["harness.binary_hits"] += 1

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        # import every module first: one imported mid-patch could bind a
        # wrapper that uninstall would not know to restore
        for _layer, module_name, _attr in LAYERS:
            importlib.import_module(module_name)
        hooks = {
            "compile": (self._pre_compile, self._post_compile),
            "profiler": (None, self._post_profile),
            "regalloc": (None, self._post_regalloc),
            "layout": (None, self._post_layout),
            "predecode": (self._pre_predecode, None),
            "execute": (self._pre_execute, self._post_execute),
            "harness": (self._pre_get_binary, self._post_get_binary),
        }
        for layer, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            pre, post = hooks.get(layer, (None, None))
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__, pre, post))
                elif layer == "serve.pool":
                    wrapped = self._wrap_async(layer, raw)
                else:
                    wrapped = self._wrap(layer, raw, pre, post)
                setattr(cls, method, wrapped)
                self._restore.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original, pre, post)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
                        self._restore.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> tuple:
        """``(self seconds per layer, inclusive seconds per layer, calls)``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        for index, (layer, start, end, _parent, _op) in enumerate(spans):
            self_s[layer] += (end - start) - child_time[index]
            total_s[layer] += end - start
            calls[layer] += 1
        return self_s, total_s, calls
