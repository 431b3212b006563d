"""scipy.linalg is loaded only by the interior-point method and the Lovasz cut.

Each check runs its fits in a fresh interpreter, since the test process may
already hold scipy.linalg, and compares their bits with the same fits run
here.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np  # noqa: F401 - the fit texts below use it
import pytest

import paulisdp
from paulisdp import models, sdp, solvers  # noqa: F401

SRC = str(Path(paulisdp.__file__).resolve().parent.parent)

# each fit as source text, evaluated in the fresh interpreter and here
FITS = {
    "ground": "solvers.GroundStateSolver(seed_state='plus', krylov_order=2)"
              ".fit(models.ising_hamiltonian(4, 1.0, 1.0))",
    "largest": "solvers.LargestEigenvalueSolver(seed_state='zero', krylov_order=4)"
               ".fit(models.random_pauli_operator(40, 6, seed=0))",
    "solve": "sdp.solve(sdp.normalized_program(np.diag([3.0, 1.0, 2.0]), 'min'))",
    "lovasz": "solvers.LovaszThetaSolver(mode='ansatz', seed_state='zero')"
              ".fit(models.cycle_graph(5))",
    # scalar (budget) rows and matrix (completeness) rows
    "discriminate": "solvers.UnambiguousDiscriminator(error_budget=0.05).fit("
                    "solvers.two_state_discrimination_instance("
                    "0.8, n_qubits=6, n_strings=24, seed=1, error_budget=0.05))",
    "xor": "solvers.XorGameSolver(mode='ansatz', seed_state='random', circuit_seed=1,"
           " n_states=4).fit(models.XorGame.chsh())",
}

# the bits of a solution: status, iterations, objective, blocks, y and the matrix multiplier
BITS = """
def bits(sol):
    arrays = [*sol.blocks.values(), sol.y, sol.y_matrix]
    return [sol.status.value, sol.iterations, float(sol.objective_value).hex(),
            *(None if a is None else a.tobytes().hex() for a in arrays)]
"""
exec(BITS)

CHILD = BITS + """
import json, sys
import paulisdp, paulisdp.cli
import numpy as np
from paulisdp import models, sdp, solvers
out = {"import": "scipy.linalg" in sys.modules}
for name, text in json.loads(sys.argv[1]).items():
    fit = eval(text)
    sol = fit if isinstance(fit, sdp.SdpSolution) else fit.solution_
    out[name] = {"loaded": "scipy.linalg" in sys.modules, "bits": bits(sol)}
print(json.dumps(out))
"""


def run_fresh(names) -> dict:
    """Whether scipy.linalg is loaded after the imports and after each fit, and the fits' bits."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps({name: FITS[name] for name in names})],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def solution_here(name) -> sdp.SdpSolution:
    fit = eval(FITS[name])
    return fit if isinstance(fit, sdp.SdpSolution) else fit.solution_


def test_import_and_eigen_path_fits_leave_scipy_linalg_unloaded():
    out = run_fresh(["ground", "largest"])
    assert out["import"] is False
    for name in ("ground", "largest"):
        sol = solution_here(name)
        assert sol.is_optimal and sol.iterations == 0  # the eigen path, not the IPM
        assert out[name] == {"loaded": False, "bits": bits(sol)}


@pytest.mark.parametrize("name, value", [("solve", 1.0), ("lovasz", math.sqrt(5.0))])
def test_interior_point_and_lovasz_cut_load_scipy_linalg(name, value):
    out = run_fresh([name])
    assert out["import"] is False
    sol = solution_here(name)
    assert sol.is_optimal and sol.iterations > 0
    assert abs(sol.objective_value - value) < 1e-6
    assert out[name] == {"loaded": True, "bits": bits(sol)}


@pytest.mark.parametrize("name", ["discriminate", "xor"])
def test_interior_point_bits_do_not_depend_on_earlier_calls(name):
    # the fresh interpreter plans every contraction from scratch; this
    # process has already run other fits
    out = run_fresh([name])
    sol = solution_here(name)
    assert sol.is_optimal and sol.iterations > 0
    assert out[name] == {"loaded": True, "bits": bits(sol)}
