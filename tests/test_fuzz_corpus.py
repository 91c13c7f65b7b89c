"""Replay the checked-in fuzz corpus through the full oracle stack.

Every entry in ``tests/corpus/`` must agree across all ten oracle levels
(AST reference, IR interpreter, squeezed-SIR interpreter x3, machine
BASELINE/BITSPEC x3/THUMB) and satisfy the per-run invariants (stage
verification, energy accounting, profile==run zero-misspeculation).
"""

import dataclasses
from pathlib import Path

import pytest

from repro.core.pipeline import CompilerConfig, compile_binary
from repro.frontend.parser import parse
from repro.fuzz.corpus import iter_corpus, load_program, program_to_dict
from repro.fuzz.oracles import ALL_LEVELS, REF_STEP_LIMIT, run_oracles
from repro.fuzz.reference import Reference
from repro.passes.expander import ExpanderConfig

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def reports():
    """One oracle-stack run per entry, shared by every test in the module."""
    return {path.name: run_oracles(program) for path, program in iter_corpus(CORPUS_DIR)}


def test_corpus_is_seeded():
    assert len(ENTRIES) >= 10, "seed corpus should hold at least 10 programs"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_passes_all_oracles(path, reports):
    report = reports[path.name]
    assert report.ok, f"{path.name}: {report.summary()}\n{report.error or ''}"
    for level in ALL_LEVELS:
        assert level in report.outputs, f"{path.name}: level {level} missing"
    assert report.outputs["ref"], f"{path.name}: program produced no output"


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_under_nospec_matches_the_reference(path):
    """The ``nospec`` preset (static narrowing, no speculation) is not an
    oracle level, but serve accepts it: every entry must compile under it
    and print what the AST reference prints."""
    program = load_program(path)
    expander = (
        ExpanderConfig() if program.expander_enabled else ExpanderConfig.disabled()
    )
    config = dataclasses.replace(CompilerConfig.nospec(), expander=expander)
    binary = compile_binary(
        program.source, config, profile_inputs=program.inputs_profile
    )
    expected = Reference(
        parse(program.source), program.inputs_run, step_limit=REF_STEP_LIMIT
    ).run()
    assert binary.run(program.inputs_run).output == expected


def test_corpus_exercises_misspeculation(reports):
    """At least one entry misspeculates, so the Δ-handler re-execution
    machinery (not just the happy path) is on the replayed semantics."""
    totals = {
        name: sum(report.misspeculations.values())
        for name, report in reports.items()
    }
    assert any(count > 0 for count in totals.values()), totals


def test_corpus_round_trips():
    for path, program in iter_corpus(CORPUS_DIR):
        data = program_to_dict(program, name=path.stem)
        assert data["source"] == program.source
        assert data["inputs_run"] == program.inputs_run
        assert data["inputs_profile"] == program.inputs_profile


def test_iter_corpus_skips_truncated_entry_with_warning(tmp_path):
    """A torn file (killed writer) warns and skips; good entries survive."""
    good = CORPUS_DIR / ENTRIES[0].name
    (tmp_path / "aaa-good.json").write_text(good.read_text())
    # truncate a valid entry mid-document, as a SIGKILL'd writer would
    (tmp_path / "bbb-torn.json").write_text(good.read_text()[:40])
    with pytest.warns(UserWarning, match="bbb-torn"):
        loaded = list(iter_corpus(tmp_path))
    assert [p.name for p, _ in loaded] == ["aaa-good.json"]


def test_iter_corpus_skips_schema_violations_with_warning(tmp_path):
    good = CORPUS_DIR / ENTRIES[0].name
    (tmp_path / "aaa-good.json").write_text(good.read_text())
    (tmp_path / "bbb-list.json").write_text("[1, 2, 3]\n")
    (tmp_path / "ccc-nosource.json").write_text('{"format": 1, "seed": 0}\n')
    with pytest.warns(UserWarning) as caught:
        loaded = list(iter_corpus(tmp_path))
    assert [p.name for p, _ in loaded] == ["aaa-good.json"]
    warned = "".join(str(w.message) for w in caught)
    assert "bbb-list" in warned and "ccc-nosource" in warned
