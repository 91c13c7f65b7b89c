"""LLVM ``-stats``-style pass counters.

Passes report what they did through a context-local *scoped* registry:
:func:`collecting` opens a scope, :func:`bump` adds to a named counter of
the innermost open scope, and the scope's dict is the result.  When no
scope is open, :func:`bump` is a no-op costing one context lookup — so
instrumented passes pay nothing outside of collection, and nothing needs
to be threaded through pass signatures.  The scope lives in a
:class:`contextvars.ContextVar`, so compiles running concurrently in
different threads (serve's inline mode) each count into their own scope.

The pipeline (:func:`repro.core.pipeline.compile_binary`) wraps the whole
compilation in a scope and stores the snapshot on
``CompiledBinary.pass_stats``; the eval harness copies it onto
``RunRecord.pass_stats`` so ``repro.bench`` caches it with the run, and
``python -m repro.obs report`` renders it.

Counter naming: ``bump("squeezer", "variables_narrowed")`` — the pass
name groups counters in reports, the counter name says what was counted.
Keep both lowercase-with-underscores.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

#: the innermost open collection scope of this context (None: not collecting)
_SCOPE: ContextVar[Optional[dict]] = ContextVar("pass_stats_scope", default=None)


@contextmanager
def collecting():
    """Open a collection scope; yields the (live) stats dict.

    Scopes nest: counters land in the innermost scope only, so a nested
    compilation (e.g. a fuzz oracle compiling under an outer bench scope)
    does not pollute its parent.
    """
    scope: dict = {}
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def bump(pass_name: str, counter: str, amount: int = 1) -> None:
    """Add ``amount`` to ``pass_name.counter`` in the innermost scope."""
    scope = _SCOPE.get()
    if scope is None or not amount:
        return
    counters = scope.setdefault(pass_name, {})
    counters[counter] = counters.get(counter, 0) + amount


def snapshot(scope: dict) -> dict:
    """A deterministic, JSON-ready copy of a scope (keys sorted)."""
    return {
        pass_name: {k: scope[pass_name][k] for k in sorted(scope[pass_name])}
        for pass_name in sorted(scope)
    }
