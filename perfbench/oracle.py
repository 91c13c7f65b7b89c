"""Per-op correctness: simulated-statistics folds and the stored references.

Every op yields one *stats row* — the simulated statistics a speed-only
change must leave identical:

    [instructions, cycles, misspeculations, energy_pj, code_size, spills]

``energy_pj`` is the total energy rounded to 6 decimals (the precision
the serve report documents); ``spills`` is the dynamic spill loads plus
spill stores.  A reference file beside the benchmark
(``reference/<workload>.json``) maps every cell the workload can draw to
its row as measured on the code that defined the benchmark;
``make_reference.py`` rebuilds them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

STATS_FIELDS = (
    "instructions",
    "cycles",
    "misspeculations",
    "energy_pj",
    "code_size",
    "spills",
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def sim_row(sim, energy_pj: float, code_size: int) -> list:
    """The stats row of one simulation."""
    return [
        sim.instructions,
        sim.cycles,
        sim.misspeculations,
        round(energy_pj, 6),
        code_size,
        sim.spill_loads + sim.spill_stores,
    ]


def report_row(body: dict) -> list:
    """The stats row of one serve report body."""
    result = body["result"]
    return [
        result["instructions"],
        result["cycles"],
        result["misspeculations"],
        round(result["energy_total_pj"], 6),
        body["compile"]["code_size"],
        result["spill_loads"] + result["spill_stores"],
    ]


def digest(rows: dict) -> str:
    """SHA-256 over ``{cell: row}``, independent of op order."""
    h = hashlib.sha256()
    for cell in sorted(rows):
        h.update(f"{cell}={json.dumps(rows[cell])}\n".encode())
    return h.hexdigest()


def reference_path(workload: str, directory=None) -> Path:
    return Path(directory or REFERENCE_DIR) / f"{workload}.json"


def load_reference(workload: str, directory=None) -> dict:
    """``{cell: row}`` for a workload; missing file means no cell passes."""
    path = reference_path(workload, directory)
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text())
    if doc.get("fields") != list(STATS_FIELDS):
        raise ValueError(f"{path}: fields {doc.get('fields')} != {STATS_FIELDS}")
    return doc["cells"]


def save_reference(workload: str, cells: dict, directory=None) -> Path:
    path = reference_path(workload, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "fields": list(STATS_FIELDS),
        "digest": digest(cells),
        "cells": dict(sorted(cells.items())),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
