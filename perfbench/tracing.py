"""In-memory spans around the public calls of each pipeline layer.

The tracer replaces each layer function on the object its callers look it
up on (``paulisdp.solvers.build_overlaps``, not ``paulisdp.ansatz``'s own
binding, because ``solvers`` imported the name) and restores the original
on exit.  A span is ``[span_id, name, start, end, parent_id, fit_id,
counts]``; the root span of every fit is ``solvers.fit`` and its id is the
``fit_id`` of every span below it.  Nothing is written until the caller
asks for the spans at the end of the run.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import paulisdp.ansatz
import paulisdp.solvers
import paulisdp.states
from paulisdp.sdp import SolveStatus

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = {
    "ansatz.overlaps_s": "s",
    "ansatz.overlaps_self_s": "s",
    "ansatz.entries": "count",
    "ansatz.evals_per_entry": "ratio",
    "ansatz.krylov_s": "s",
    "ansatz.n_strings": "count",
    "states.prepare_s": "s",
    "states.expect_calls": "count",
    "states.expect_s": "s",
    "states.sample_calls": "count",
    "states.sample_s": "s",
    "states.shots_total": "count",
    "sdp.solve_calls": "count",
    "sdp.solve_s": "s",
    "sdp.ipm_iters": "count",
    "sdp.solve_not_optimal": "count",
    "sdp.gram_s": "s",
    "sdp.rank": "count",
    "sdp.eig_s": "s",
    "solvers.fit_s": "s",
    "solvers.self_s": "s",
    "models.build_s": "s",
    "trace.overhead_s": "s",
}


def _overlap_entries(args, kwargs):
    """M^2 x (1 + number of operator terms) for one build_overlaps call."""
    bound = _OVERLAP_SIGNATURE.bind(*args, **kwargs)
    ansatz = bound.arguments["ansatz"]
    objective = bound.arguments.get("objective")
    constraints = bound.arguments.get("constraints") or {}
    terms = (len(objective) if objective is not None else 0) + sum(
        len(op) for op in constraints.values()
    )
    return {"entries": len(ansatz) ** 2 * (1 + terms)}


def _shots(args, kwargs):
    return {"shots": _SAMPLE_SIGNATURE.bind(*args, **kwargs).arguments["shots"]}


def _solve_counts(result):
    return {
        "iterations": result.iterations,
        "not_optimal": int(result.status is not SolveStatus.OPTIMAL),
    }


_OVERLAP_SIGNATURE = inspect.signature(paulisdp.ansatz.build_overlaps)
_SAMPLE_SIGNATURE = inspect.signature(paulisdp.states.DenseState.sampled_expectation)

# (owner, attribute, span name, counts from the arguments, counts from the result)
WRAPPED = [
    (paulisdp.solvers, "krylov_ansatz", "ansatz.krylov", None, lambda r: {"n_strings": len(r)}),
    (paulisdp.solvers, "build_overlaps", "ansatz.overlaps", _overlap_entries, None),
    (paulisdp.solvers, "gram_basis", "sdp.gram", None, lambda r: {"rank": r.rank}),
    (paulisdp.solvers, "solve", "sdp.solve", None, _solve_counts),
    (paulisdp.solvers, "generalized_min_eig", "sdp.eig", None, None),
    (paulisdp.ansatz, "prepare", "states.prepare", None, None),
    (paulisdp.states.DenseState, "expectation", "states.expect", None, None),
    (paulisdp.states.ProductState, "expectation", "states.expect", None, None),
    (paulisdp.states.DenseState, "sampled_expectation", "states.sample", _shots, None),
    (paulisdp.states.ProductState, "sampled_expectation", "states.sample", _shots, None),
]


class Tracer:
    """Collects spans for one process; not thread-safe (fits run serially)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record = [
            span_id,
            name,
            time.perf_counter(),
            None,
            None if parent is None else parent[0],
            span_id if parent is None else parent[5],
            {},
        ]
        self.spans.append(record)
        self._stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, original, name, arg_counts, result_counts):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                if arg_counts is not None:
                    record[6].update(arg_counts(args, kwargs))
                result = original(*args, **kwargs)
                if result_counts is not None:
                    record[6].update(result_counts(result))
                return result
            finally:
                self._close(record)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer entry point in WRAPPED; restore them on exit.

        Raises AttributeError, before patching anything, when a wrapped
        name no longer exists, so a renamed layer cannot silently report
        zero calls.
        """
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in WRAPPED
            if attr not in vars(owner)
        ]
        if missing:
            raise AttributeError(f"traced layer entry points no longer exist: {missing}")
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in WRAPPED]
        try:
            for owner, attr, name, arg_counts, result_counts in WRAPPED:
                setattr(owner, attr, self._wrap(vars(owner)[attr], name, arg_counts, result_counts))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def _self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of its interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[2]
        for start, end in sorted(children.get(s[0], ())):
            start, end = max(start, reach), min(end, s[3])
            if end > start:
                covered += end - start
                reach = end
        out[s[0]] = (s[3] - s[2]) - covered
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over the ``solvers.fit`` spans; absent layers read 0.

    Times and counts are summed over the fits; ``sdp.rank`` is the mean
    Gram rank per ``gram_basis`` call.  ``models.build_s`` and
    ``trace.overhead_s`` are measured outside fits and left to the caller.
    """
    fit_ids = {s[0] for s in spans if s[1] == "solvers.fit"}
    spans = [s for s in spans if s[5] in fit_ids]
    self_times = _self_times(spans)
    by_id = {s[0]: s for s in spans}
    time_of: dict[str, float] = {}
    self_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    overlap_evals = 0
    for s in spans:
        name = s[1]
        time_of[name] = time_of.get(name, 0.0) + (s[3] - s[2])
        self_of[name] = self_of.get(name, 0.0) + self_times[s[0]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s[6].items():
            counts[key] = counts.get(key, 0) + value
        if name in ("states.expect", "states.sample"):
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != "ansatz.overlaps":
                parent = by_id.get(parent[4])
            overlap_evals += parent is not None
    entries = counts.get("entries", 0)
    gram_calls = calls.get("sdp.gram", 0)
    return {
        "ansatz.overlaps_s": time_of.get("ansatz.overlaps", 0.0),
        "ansatz.overlaps_self_s": self_of.get("ansatz.overlaps", 0.0),
        "ansatz.entries": entries,
        "ansatz.evals_per_entry": overlap_evals / entries if entries else 0.0,
        "ansatz.krylov_s": time_of.get("ansatz.krylov", 0.0),
        "ansatz.n_strings": counts.get("n_strings", 0),
        "states.prepare_s": time_of.get("states.prepare", 0.0),
        "states.expect_calls": calls.get("states.expect", 0),
        "states.expect_s": time_of.get("states.expect", 0.0),
        "states.sample_calls": calls.get("states.sample", 0),
        "states.sample_s": time_of.get("states.sample", 0.0),
        "states.shots_total": counts.get("shots", 0),
        "sdp.solve_calls": calls.get("sdp.solve", 0),
        "sdp.solve_s": time_of.get("sdp.solve", 0.0),
        "sdp.ipm_iters": counts.get("iterations", 0),
        "sdp.solve_not_optimal": counts.get("not_optimal", 0),
        "sdp.gram_s": time_of.get("sdp.gram", 0.0),
        "sdp.rank": counts.get("rank", 0) / gram_calls if gram_calls else 0.0,
        "sdp.eig_s": time_of.get("sdp.eig", 0.0),
        "solvers.fit_s": time_of.get("solvers.fit", 0.0),
        "solvers.self_s": self_of.get("solvers.fit", 0.0),
    }
