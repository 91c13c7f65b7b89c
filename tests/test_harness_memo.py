"""The harness's staged memo: profile, binary and simulation stages.

Each stage is keyed only on the knobs it reads, so configs that differ
in knobs compilation never reads share one compile, and every
speculating config of a workload shares one profile.  Sharing must never
change a result: every binary and record a memo hit hands out equals
what a cold compile or run of that exact config produces.
"""

import dataclasses

import pytest

from repro.core.pipeline import CompilerConfig, compile_binary
from repro.eval import harness
from repro.profiler.profile import BitwidthProfile
from repro.workloads import get_workload

WORKLOAD = "crc32"


@pytest.fixture(autouse=True)
def _cold():
    harness.clear_caches()
    yield
    harness.clear_caches()


@pytest.fixture
def counted(monkeypatch):
    """Counts ``compile_binary`` calls and profiling runs."""
    counts = {"compile": 0, "profile": 0}
    real_compile = harness.compile_binary
    real_collect = BitwidthProfile.collect.__func__

    def compile_counting(*args, **kwargs):
        counts["compile"] += 1
        return real_compile(*args, **kwargs)

    def collect_counting(cls, *args, **kwargs):
        counts["profile"] += 1
        return real_collect(cls, *args, **kwargs)

    monkeypatch.setattr(harness, "compile_binary", compile_counting)
    monkeypatch.setattr(BitwidthProfile, "collect", classmethod(collect_counting))
    return counts


def _variants(base: CompilerConfig) -> list:
    """``base`` under knobs compilation never reads."""
    return [
        base,
        dataclasses.replace(base, name="renamed"),
        dataclasses.replace(base, l1_kb=4, l1_ways=2),
        dataclasses.replace(base, l2_kb=128, l2_ways=4),
        dataclasses.replace(base, voltage_scaling="timesqueezing"),
        dataclasses.replace(
            base, voltage_scaling="timesqueezing", dts_alpha=1.6,
            dts_bitwidth_aware=True,
        ),
    ]


def _cold_identity(config: CompilerConfig):
    workload = get_workload(WORKLOAD)
    binary = compile_binary(
        workload.source,
        config,
        profile_inputs=workload.inputs("test", 0),
        name=WORKLOAD,
    )
    return binary.fingerprint(), binary.alloc_stats, binary.pass_stats


def _identity(binary):
    return binary.fingerprint(), binary.alloc_stats, binary.pass_stats


def test_post_hoc_and_simulation_knobs_share_one_compile(counted):
    configs = _variants(CompilerConfig.bitspec("max"))
    for config in configs:
        binary = harness.get_binary(WORKLOAD, config)
        assert binary.config is config
    assert counted == {"compile": 1, "profile": 1}


def test_speculating_configs_share_one_profile(counted):
    for config in (
        CompilerConfig.bitspec("max"),
        CompilerConfig.bitspec("avg"),
        CompilerConfig.bitspec("max", slice_width=4),
        CompilerConfig.bitspec("max", confidence_margin=1),
    ):
        harness.get_binary(WORKLOAD, config)
    assert counted == {"compile": 4, "profile": 1}


def test_width32_squeeze_knobs_share_one_binary(counted):
    base = CompilerConfig(name="w32", slice_width=32)
    for config in (
        base,
        dataclasses.replace(base, confidence_margin=1),
        dataclasses.replace(base, min_hotness=0.5, squeeze_ops=("add",)),
        dataclasses.replace(base, compare_elimination=False, max_spec_regions=3),
    ):
        harness.get_binary(WORKLOAD, config)
    assert counted == {"compile": 1, "profile": 0}
    # the same knobs do compile apart under a speculative middle end
    spec = CompilerConfig.bitspec("max")
    harness.get_binary(WORKLOAD, spec)
    harness.get_binary(WORKLOAD, dataclasses.replace(spec, confidence_margin=1))
    assert counted["compile"] == 3


@pytest.mark.parametrize(
    "base",
    [CompilerConfig.bitspec("max"), CompilerConfig(name="w32", slice_width=32)],
    ids=["bitspec-max", "width32"],
)
def test_memo_hits_equal_cold_compiles(base):
    configs = _variants(base) + [
        dataclasses.replace(base, confidence_margin=1, l1_kb=16),
    ]
    for config in configs:
        assert _identity(harness.get_binary(WORKLOAD, config)) == _cold_identity(
            config
        )


def test_shared_simulation_records_equal_cold_runs():
    configs = _variants(CompilerConfig.bitspec("max"))
    memo = [harness.run(WORKLOAD, config) for config in configs]
    assert len(harness._SIMS) == 3  # three cache geometries
    for config, record in zip(configs, memo):
        harness.clear_caches()
        cold = harness.run(WORKLOAD, config)
        assert record.config == config and record.binary.config == config
        assert record.sim.output == cold.sim.output
        assert record.sim.cycles == cold.sim.cycles
        assert record.energy == cold.energy
        assert record.total_energy == cold.total_energy
        assert (record.dts_energy is None) == (cold.dts_energy is None)
        assert getattr(record.sim, "dts_energy", None) == getattr(
            cold.sim, "dts_energy", None
        )


def test_a_wrong_output_fails_every_config_sharing_its_simulation(monkeypatch):
    workload = get_workload(WORKLOAD)
    monkeypatch.setattr(workload, "expected_output", lambda inputs: [-1])
    config = CompilerConfig.bitspec("max")
    siblings = [
        config,
        dataclasses.replace(config, name="dts", voltage_scaling="timesqueezing"),
        dataclasses.replace(config, dts_alpha=1.6),
        config,  # the very config again
    ]
    for sibling in siblings:
        with pytest.raises(AssertionError, match=r"!= expected \[-1\]"):
            harness.run(WORKLOAD, sibling)
    assert len(harness._SIMS) == 1  # simulated once, failed four times


def test_records_derived_for_a_sibling_reach_the_disk_cache(tmp_path):
    from repro.bench.cache import install_disk_cache

    config = CompilerConfig.bitspec("max")
    sibling = dataclasses.replace(
        config, name="dts", voltage_scaling="timesqueezing"
    )
    cache = install_disk_cache(tmp_path)
    try:
        harness.run(WORKLOAD, config)
        derived = harness.run(WORKLOAD, sibling)
        harness.clear_caches()  # a later process: only the disk remains
        from_disk = harness.run(WORKLOAD, sibling)
    finally:
        harness.set_disk_cache(None)
    assert from_disk.binary is None  # answered by the disk cache
    assert cache.contains_run(
        get_workload(WORKLOAD).source, sibling, "test", 0, "test", 0
    )
    assert from_disk.sim.cycles == derived.sim.cycles
    assert from_disk.total_energy == derived.total_energy


def test_memoized_records_hold_no_memory_image(tmp_path):
    """The memo keeps every record, so none keeps its 4 MB memory image:
    a fresh run, a memo hit and a disk hit all come back without one."""
    from repro.bench.cache import install_disk_cache

    config = CompilerConfig.bitspec("max")
    install_disk_cache(tmp_path)
    try:
        fresh = harness.run(WORKLOAD, config)
        hit = harness.run(WORKLOAD, config)
        harness.clear_caches()
        from_disk = harness.run(WORKLOAD, config)
    finally:
        harness.set_disk_cache(None)
    assert from_disk.binary is None  # answered by the disk cache
    for record in (fresh, hit, from_disk):
        assert record.sim.memory is None
    assert hit.sim.output == from_disk.sim.output == fresh.sim.output


def test_memoized_tracks_the_simulation_stage():
    config = CompilerConfig.bitspec("max")
    assert not harness.memoized(WORKLOAD, config)
    harness.run(WORKLOAD, config)
    assert harness.memoized(WORKLOAD, config)
    assert harness.memoized(WORKLOAD, dataclasses.replace(config, dts_alpha=1.6))
    assert not harness.memoized(WORKLOAD, dataclasses.replace(config, l1_kb=4))
    assert not harness.memoized(WORKLOAD, config, run_kind="alt")
    assert not harness.memoized(WORKLOAD, config, engine="legacy")


def test_clear_caches_empties_every_stage():
    harness.run(WORKLOAD, CompilerConfig.bitspec("max"))
    assert harness._PROFILES and harness._BINARIES and harness._SIMS
    harness.clear_caches()
    assert not harness._PROFILES
    assert not harness._BINARIES
    assert not harness._SIMS


def test_every_config_field_is_classified():
    """A new CompilerConfig field must say which stage reads it, or it
    could silently alias a memo entry."""
    groups = (
        harness.COMPILE_FIELDS,
        harness.SQUEEZE_FIELDS,
        harness.SIMULATION_FIELDS,
        harness.POST_HOC_FIELDS,
    )
    classified = [name for group in groups for name in group]
    assert len(classified) == len(set(classified)), "a field is in two groups"
    fields = {f.name for f in dataclasses.fields(CompilerConfig)}
    assert set(classified) == fields, (
        f"unclassified: {sorted(fields - set(classified))}; "
        f"stale: {sorted(set(classified) - fields)}"
    )
