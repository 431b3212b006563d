"""Self-tests of the benchmark: gates catch a perturbed result, counts repeat.

    python3 -m pytest perfbench -q

Runs two traced copies of every workload's first set at one seed (about a
minute on two cores).  Not part of the package's test suite, which collects ``tests/``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import paulisdp.solvers  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
REPEATED_COUNTS = (
    "ansatz.n_strings",
    "sdp.rank",
    "sdp.ipm_iters",
    "states.expect_calls",
    "states.shots_total",
)
# The attribute each workload reports its result in.
RESULT_ATTRIBUTE = {
    "eigmax_1000q": "eigenvalue_",
    "nse_m350": "energy_",
    "discriminate_ipm": "q_correct_",
    "shots_ising6": "energy_",
}


@pytest.fixture(scope="module", params=list(WORKLOADS))
def traced_twice(request):
    workload = WORKLOADS[request.param]
    inputs = workload.build(SEED)
    refs = workload.references(inputs)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        outcome = run.run_set(workload, workload.sets(inputs)[0], inputs, refs, tracer)
        runs.append((outcome, layer_metrics(tracer.spans)))
    return workload, inputs, refs, runs


def test_every_fit_passes_its_gate(traced_twice):
    _workload, _inputs, _refs, runs = traced_twice
    for outcome, _metrics in runs:
        assert [o["failed"] for o in outcome["fits"]] == [[]] * len(outcome["fits"])


def test_counts_repeat_across_traced_runs(traced_twice):
    _workload, _inputs, _refs, ((_, first), (_, second)) = traced_twice
    assert {k: first[k] for k in REPEATED_COUNTS} == {k: second[k] for k in REPEATED_COUNTS}
    assert set(first) | {"models.build_s", "trace.overhead_s"} == set(LAYER_METRICS)


def test_perturbed_result_fails_the_gate(traced_twice):
    workload, inputs, refs, ((outcome, _), _) = traced_twice
    attribute = RESULT_ATTRIBUTE[workload.name]
    done = {}
    for fit in workload.sets(inputs)[0]:
        solver = outcome["solvers"][fit.label]
        perturbed = copy.copy(solver)
        setattr(perturbed, attribute, getattr(solver, attribute) + 1e-3)
        assert workload.check(fit, perturbed, done, inputs, refs), fit.label
        assert not workload.check(fit, solver, done, inputs, refs), fit.label
        done[fit.label] = solver


def test_missing_layer_fails_loudly(monkeypatch):
    monkeypatch.delattr(paulisdp.solvers, "gram_basis")
    with pytest.raises(AttributeError, match="gram_basis"):
        with Tracer().installed():
            pass


def test_self_time_subtracts_children():
    spans = [
        [0, "solvers.fit", 0.0, 10.0, None, 0, {}],
        [1, "ansatz.overlaps", 1.0, 5.0, 0, 0, {"entries": 8}],
        [2, "states.expect", 2.0, 3.0, 1, 0, {}],
        [3, "sdp.solve", 6.0, 9.0, 0, 0, {"iterations": 4, "not_optimal": 0}],
        [4, "states.expect", 20.0, 21.0, None, 4, {}],  # outside any fit
    ]
    metrics = layer_metrics(spans)
    assert metrics["solvers.fit_s"] == 10.0
    assert metrics["solvers.self_s"] == 3.0
    assert metrics["ansatz.overlaps_self_s"] == 3.0
    assert metrics["states.expect_calls"] == 1
    assert metrics["ansatz.evals_per_entry"] == 1 / 8
    assert metrics["sdp.ipm_iters"] == 4
    assert metrics["states.sample_calls"] == 0
