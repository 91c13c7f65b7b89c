"""Experiment harness: compile-and-simulate with memoization.

The unit of work is a :class:`RunRecord` — one (workload, configuration,
profile input, run input) simulation with its energy breakdown and compiler
statistics.  A per-process memo lets the per-figure drivers and sweeps
share work.  It has three stages — profile, binary, simulation — each
keyed only on the configuration knobs that stage reads, so configs that
differ in cache geometry, DTS or name share one compile, and every
speculating config of a workload shares one profile.

Profiling defaults to the *run* input, mirroring the paper's main results
(§2 footnote: all values use the provided large input); the RQ6 sensitivity
experiments override ``profile_kind``.
"""

from __future__ import annotations

import copy
import json
import threading
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from repro.arch.energy import EnergyBreakdown
from repro.arch.machine import SimResult
from repro.core.pipeline import CompiledBinary, CompilerConfig, compile_binary
from repro.passes.expander import ExpanderConfig
from repro.workloads import get_workload


@dataclass
class RunRecord:
    """One simulated experiment."""

    workload: str
    config: CompilerConfig
    sim: SimResult
    binary: CompiledBinary
    correct: bool
    energy: EnergyBreakdown
    #: energy under time squeezing (populated when voltage_scaling says so)
    dts_energy: Optional[EnergyBreakdown] = None
    #: per-pass compiler counters (repro.passes.stats), cached with the run
    pass_stats: dict = field(default_factory=dict)

    @property
    def total_energy(self) -> float:
        if self.config.voltage_scaling == "timesqueezing":
            if self.dts_energy is None:
                # A record built outside run() (or deserialized) may not
                # carry the scaled breakdown; derive it from the sim rather
                # than dying on `None.total`.
                if self.sim is None:
                    raise ValueError(
                        "timesqueezing record has neither dts_energy nor a "
                        "sim result to derive it from"
                    )
                self.dts_energy = self.config.dts_model().apply(self.sim)
            return self.dts_energy.total
        return self.energy.total

    @property
    def instructions(self) -> int:
        return self.sim.instructions

    @property
    def epi(self) -> float:
        return self.total_energy / max(self.sim.instructions, 1)


#: :class:`CompilerConfig` fields, by the stage that reads them.  Every
#: field is in exactly one group (``tests/test_harness_memo.py`` holds
#: the inventory), so a new knob cannot silently alias a memo entry.
#: Read by compilation under every middle end:
COMPILE_FIELDS = (
    "isa",
    "middle_end",
    "expander",
    "slice_width",
    "invert_handler_weights",
)
#: read by compilation only under a speculative (``2cfg-*``) middle end:
SQUEEZE_FIELDS = (
    "compare_elimination",
    "bitmask_elision",
    "squeeze_ops",
    "min_hotness",
    "confidence_margin",
    "max_spec_regions",
)
#: read by the simulation (the cache hierarchy):
SIMULATION_FIELDS = ("l1_kb", "l1_ways", "l2_kb", "l2_ways")
#: read after the simulation (DTS) or never (the display name):
POST_HOC_FIELDS = ("voltage_scaling", "dts_alpha", "dts_bitwidth_aware", "name")


def _speculative(config: CompilerConfig) -> bool:
    return config.middle_end.startswith("2cfg-")


def _config_key(config: CompilerConfig) -> str:
    """Canonical JSON of the knobs compilation reads (never ``name``).

    The squeeze knobs count only under a speculative middle end: a
    width-32 BASELINE point compiles identically whatever they say.
    """
    names = COMPILE_FIELDS + (SQUEEZE_FIELDS if _speculative(config) else ())
    data = asdict(config)
    return json.dumps({n: data[n] for n in names}, sort_keys=True)


def _profile_key(workload: str, config, profile_kind, profile_seed) -> tuple:
    """A profile depends on the program and its profiling input only.

    :class:`BitwidthProfile` is keyed by (function, variable name) and
    the CFG preparation before it reads no config, so every speculative
    config of one (workload, expander, input) shares one profile.
    """
    expander = json.dumps(asdict(config.expander), sort_keys=True)
    return (workload, expander, profile_kind, profile_seed)


def _binary_key(workload: str, config, profile_kind, profile_seed) -> tuple:
    profile = (
        _profile_key(workload, config, profile_kind, profile_seed)
        if _speculative(config)
        else None  # only the speculative middle ends profile
    )
    return (workload, _config_key(config), profile)


def _sim_key(
    workload, config, profile_kind, profile_seed, run_kind, run_seed, engine
) -> tuple:
    return (
        _binary_key(workload, config, profile_kind, profile_seed),
        tuple(getattr(config, n) for n in SIMULATION_FIELDS),
        engine,
        run_kind,
        run_seed,
    )


#: the staged memo: profile, binary and simulation stages, each keyed only
#: on what its stage reads; ``_LOCK`` guards all three (entries are
#: computed outside it; the first one stored wins)
_PROFILES: dict = {}
_BINARIES: dict = {}
_SIMS: dict = {}
_LOCK = threading.Lock()

#: optional persistent layer under the per-process memoizer — a
#: :class:`repro.bench.cache.RunDiskCache` (installed via
#: ``repro.bench.cache.install_disk_cache`` or the bench executor)
_DISK_CACHE = None


def set_disk_cache(cache) -> None:
    """Install (or remove, with None) the persistent result cache."""
    global _DISK_CACHE
    _DISK_CACHE = cache


def get_disk_cache():
    return _DISK_CACHE


def clear_caches() -> None:
    """Empty every memo stage (the disk cache is untouched)."""
    with _LOCK:
        _PROFILES.clear()
        _BINARIES.clear()
        _SIMS.clear()


def memoized(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    engine: Optional[str] = None,
) -> bool:
    """True when :func:`run` would answer from the simulation stage."""
    key = _sim_key(
        workload_name, config, profile_kind, profile_seed, run_kind, run_seed,
        engine,
    )
    with _LOCK:
        return key in _SIMS


def _for_config(binary: CompiledBinary, config: CompilerConfig) -> CompiledBinary:
    if binary.config == config:
        return binary
    return replace(binary, config=config)


def get_binary(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
) -> CompiledBinary:
    """Compile (memoized) a workload under a configuration.

    A binary compiled for another config that differs only in knobs
    compilation never reads comes back with ``config`` swapped in.
    """
    key = _binary_key(workload_name, config, profile_kind, profile_seed)
    with _LOCK:
        binary = _BINARIES.get(key)
    if binary is None:
        workload = get_workload(workload_name)
        profile_key = key[2]
        with _LOCK:
            profile = _PROFILES.get(profile_key) if profile_key else None
        binary = compile_binary(
            workload.source,
            config,
            profile_inputs=workload.inputs(profile_kind, profile_seed),
            name=workload_name,
            profile=profile,
        )
        with _LOCK:
            binary = _BINARIES.setdefault(key, binary)
            if profile_key is not None and binary.profile is not None:
                _PROFILES.setdefault(profile_key, binary.profile)
    return _for_config(binary, config)


def _for_config_record(record: RunRecord, config: CompilerConfig) -> RunRecord:
    """``record``'s simulation under ``config``, which may differ from the
    config that produced it only in post-hoc knobs: DTS is applied here."""
    if record.config == config:
        return record
    sim = copy.copy(record.sim)
    derived = RunRecord(
        workload=record.workload,
        config=config,
        sim=sim,
        binary=None if record.binary is None else _for_config(record.binary, config),
        correct=record.correct,
        energy=sim.energy(),
        pass_stats=record.pass_stats,
    )
    vars(sim).pop("dts_energy", None)
    if config.voltage_scaling == "timesqueezing":
        sim.dts_energy = derived.dts_energy = config.dts_model().apply(sim)
    return derived


def run(
    workload_name: str,
    config: CompilerConfig,
    *,
    profile_kind: str = "test",
    profile_seed: int = 0,
    run_kind: str = "test",
    run_seed: int = 0,
    engine: Optional[str] = None,
) -> RunRecord:
    """Compile + simulate (memoized); checks output against the oracle.

    ``engine`` selects the simulation engine ("legacy" / "fast" / "ooo";
    default lets :class:`~repro.arch.machine.Machine` resolve).  The
    in-order engines are bit-identical (docs/engines.md,
    ``tests/test_engine_equivalence.py``), so the engine itself is
    excluded from the disk-cache key — in-order records are
    interchangeable across those engines.  What *does* partition the
    disk key is :func:`~repro.arch.machine.timing_model`: ooo-engine
    records carry different cycles/counters and must never serve an
    in-order lookup.  The engine enters the simulation-stage key so that
    a run requested on a specific engine (the cross-engine tests) is not
    short-circuited by a record produced under another one.

    The simulation stage is keyed on the binary, the cache geometry, the
    engine and the run input: configs that differ only in DTS knobs or
    name share one simulation, with DTS applied per config afterwards.
    """
    from repro.arch.machine import timing_model

    key = _sim_key(
        workload_name, config, profile_kind, profile_seed, run_kind, run_seed,
        engine,
    )
    workload = get_workload(workload_name)
    timing = timing_model(engine)
    disk_key = (
        workload.source, config, profile_kind, profile_seed, run_kind, run_seed
    )
    with _LOCK:
        shared = _SIMS.get(key)
    if shared is not None:
        record = _for_config_record(shared, config)
        # a record derived for this config is new to the disk cache
        stored = record is shared or (
            _DISK_CACHE is not None
            and _DISK_CACHE.contains_run(*disk_key, timing)
        )
    else:
        record = (
            None if _DISK_CACHE is None
            else _DISK_CACHE.lookup_run(*disk_key, timing)
        )
        stored = record is not None
        if record is None:
            record = _simulate(workload_name, config, profile_kind,
                               profile_seed, run_kind, run_seed, engine)
        with _LOCK:
            _SIMS.setdefault(key, record)
    # every answer is checked, memo hits included: a wrong-output record
    # stays in the memo and must fail every config that shares it
    if not record.correct:
        expected = workload.expected_output(workload.inputs(run_kind, run_seed))
        raise AssertionError(
            f"{workload_name} [{config.name}]: output {record.sim.output} != "
            f"expected {expected}"
        )
    if _DISK_CACHE is not None and not stored:
        _DISK_CACHE.store_run(*disk_key, record, timing)
    return record


def _simulate(
    workload_name, config, profile_kind, profile_seed, run_kind, run_seed,
    engine,
) -> RunRecord:
    """Compile (memoized) and simulate one cell; the output is not checked.

    The record's ``sim.memory`` is None."""
    workload = get_workload(workload_name)
    binary = get_binary(
        workload_name, config, profile_kind=profile_kind, profile_seed=profile_seed
    )
    inputs = workload.inputs(run_kind, run_seed)
    sim = binary.run(inputs, engine=engine)
    # the memo keeps every record: drop the 4 MB memory image, as the disk
    # cache does, so a memo hit and a disk hit have the same shape
    sim.memory = None
    record = RunRecord(
        workload=workload_name,
        config=config,
        sim=sim,
        binary=binary,
        correct=sim.output == workload.expected_output(inputs),
        energy=sim.energy(),
        pass_stats=binary.pass_stats,
    )
    if config.voltage_scaling == "timesqueezing":
        record.dts_energy = config.dts_model().apply(sim)
    return record


# -- the benchmark roster, ordered as the paper's figures ---------------------

BENCHMARKS = (
    "crc32",
    "fft",
    "basicmath",
    "bitcount",
    "blowfish",
    "dijkstra",
    "patricia",
    "qsort",
    "rijndael",
    "sha",
    "stringsearch",
    "susan-edges",
    "susan-corners",
    "susan-smoothing",
)


def baseline_config(**kw) -> CompilerConfig:
    return CompilerConfig.baseline(**kw)


def bitspec_config(heuristic: str = "max", **kw) -> CompilerConfig:
    return CompilerConfig.bitspec(heuristic, **kw)


def geomean(values) -> float:
    import math

    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
