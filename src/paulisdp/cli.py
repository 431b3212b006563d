"""Command-line front door: per-problem runs, sweeps and canned figure data.

Every command writes CSV with a metadata preamble (config hash, seeds,
tool version, timestamp) followed by a header naming every column.  Runs
are reproducible: identical config and seeds give byte-identical output
except for the timestamp line.

Exit codes: 0 success, 1 configuration error, 2 infeasible result on a
single-point run (sweeps record per-row statuses instead), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, models, oracle, solvers
from .ansatz import build_overlaps, krylov_ansatz
from .pauli import PauliSum
from .sdp import SolveStatus
from .solvers import resolve_seed_state, solve_normalized
from .states import prepare

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3

COMMANDS = (
    "nse",
    "excited",
    "symmetry",
    "eigmax",
    "discriminate",
    "lovasz",
    "xor",
    "rank1",
    "figures",
)


class ConfigError(Exception):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class RunConfig:
    """Validated run description; unknown keys are rejected."""

    command: str
    model: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)
    ansatz: dict = field(default_factory=dict)
    mode: str = "exact"
    shots: int = 1024
    sample_seed: int = 0
    solver: dict = field(default_factory=dict)
    output: str | None = None
    extra: dict = field(default_factory=dict)


_KNOWN_KEYS = {
    "command",
    "model",
    "state",
    "ansatz",
    "mode",
    "shots",
    "sample_seed",
    "solver",
    "output",
    "n_excited",
    "symmetry",
    "sector_value",
    "sector_values",
    "angle",
    "angles",
    "error_budget",
    "n_strings",
    "n_qubits",
    "instance_seed",
    "graph",
    "game",
    "solve_mode",
    "figure",
    "max_qubits",
    "n_seeds",
    "t_grid",
    "jobs",
}

_MODEL_KINDS = {"ising", "heisenberg", "random_pauli", "file"}
_STATE_KINDS = {"zero", "plus", "random", "annealing"}


def _load_json_object(path: str) -> dict:
    """Read a JSON file (a config or an XOR game) whose top level must be an object."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}:{exc.lineno}: invalid JSON ({exc.msg})"])
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}:1: top level must be an object"])
    return raw


def parse_config(path: str) -> RunConfig:
    """Load and fully validate a JSON config; reports every violation."""
    return validate_config(_load_json_object(path), source=path)


def validate_config(raw: dict, source: str = "<config>") -> RunConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError([f"{source}: top level must be an object"])
    unknown = set(raw) - _KNOWN_KEYS
    for key in sorted(unknown):
        errors.append(f"{source}: unknown key {key!r}")
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"{source}: 'command' must be one of {COMMANDS}, got {command!r}")

    model = raw.get("model", {})
    if model:
        kind = model.get("kind")
        if kind not in _MODEL_KINDS:
            errors.append(f"{source}: model.kind must be one of {sorted(_MODEL_KINDS)}")
        elif kind in ("ising", "heisenberg", "random_pauli"):
            n = model.get("n")
            if not isinstance(n, int) or n < 2:
                errors.append(f"{source}: model.n must be an integer >= 2")
        elif kind == "file" and not model.get("path"):
            errors.append(f"{source}: model.path is required for kind 'file'")

    state = raw.get("state", {})
    if state and state.get("kind") not in _STATE_KINDS:
        errors.append(f"{source}: state.kind must be one of {sorted(_STATE_KINDS)}")
    if state.get("layers") is not None and int(state.get("layers", 1)) < 1:
        errors.append(f"{source}: state.layers must be >= 1")
    if state.get("anneal_time") is not None and float(state["anneal_time"]) <= 0:
        errors.append(f"{source}: state.anneal_time must be positive")

    ansatz = raw.get("ansatz", {})
    if ansatz.get("krylov_order") is not None and int(ansatz["krylov_order"]) < 0:
        errors.append(f"{source}: ansatz.krylov_order must be >= 0")
    n_states = ansatz.get("n_states")
    if n_states is not None and (not isinstance(n_states, int) or n_states < 1):
        errors.append(f"{source}: ansatz.n_states must be a positive integer")
    m_sweep = ansatz.get("m_sweep")
    if m_sweep is not None:
        if not isinstance(m_sweep, list) or not all(
            isinstance(v, int) and v >= 1 for v in m_sweep
        ):
            errors.append(f"{source}: ansatz.m_sweep must be a list of positive integers")

    mode = raw.get("mode", "exact")
    if mode not in ("exact", "shots"):
        errors.append(f"{source}: mode must be 'exact' or 'shots'")
    shots = raw.get("shots", 1024)
    if not isinstance(shots, int) or shots < 1:
        errors.append(f"{source}: shots must be a positive integer")

    solver = raw.get("solver", {})
    for key in solver:
        if key not in ("tol_feas", "tol_gap", "max_iter", "rank_tol"):
            errors.append(f"{source}: unknown solver option {key!r}")
    if errors:
        raise ConfigError(errors)

    extra_keys = _KNOWN_KEYS - {
        "command", "model", "state", "ansatz", "mode", "shots", "sample_seed",
        "solver", "output",
    }
    extra = {k: raw[k] for k in extra_keys if k in raw}
    return RunConfig(
        command=command,
        model=dict(model),
        state=dict(state),
        ansatz=dict(ansatz),
        mode=mode,
        shots=shots,
        sample_seed=int(raw.get("sample_seed", 0)),
        solver=dict(solver),
        output=raw.get("output"),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# output


def _config_hash(cfg: RunConfig) -> str:
    payload = json.dumps(
        {
            "command": cfg.command,
            "model": cfg.model,
            "state": cfg.state,
            "ansatz": cfg.ansatz,
            "mode": cfg.mode,
            "shots": cfg.shots,
            "sample_seed": cfg.sample_seed,
            "solver": cfg.solver,
            "extra": cfg.extra,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_csv(path: str, cfg: RunConfig, header: list[str], rows: list[tuple]) -> None:
    seeds = {
        "sample_seed": cfg.sample_seed,
        "circuit_seed": cfg.state.get("circuit_seed", 0),
    }
    lines = [
        f"# tool: paulisdp {__version__}",
        f"# config_hash: {_config_hash(cfg)}",
        f"# seeds: {json.dumps(seeds, sort_keys=True)}",
        f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}",
        ",".join(header),
    ]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        base = os.environ.get("PAULISDP_OUTDIR")
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _statuses_exit_code(statuses) -> int:
    statuses = list(statuses)
    if all(s == SolveStatus.INFEASIBLE.value for s in statuses):
        return EXIT_INFEASIBLE
    if any(s == SolveStatus.NUMERICAL_FAILURE.value for s in statuses):
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared run helpers


def _build_hamiltonian(cfg: RunConfig) -> PauliSum:
    if not cfg.model:
        raise ConfigError([f"command {cfg.command!r} needs a model"])
    return models.build_model(cfg.model)


def _state_kwargs(cfg: RunConfig) -> dict:
    return {
        "layers": int(cfg.state.get("layers", 4)),
        "anneal_time": float(cfg.state.get("anneal_time", 0.3)),
        "circuit_seed": int(cfg.state.get("circuit_seed", 0)),
    }


def _solver_kwargs(cfg: RunConfig) -> dict:
    return {
        "rank_tol": cfg.solver.get("rank_tol"),
        "tol_feas": float(cfg.solver.get("tol_feas", 1e-8)),
        "tol_gap": float(cfg.solver.get("tol_gap", 1e-8)),
        "max_iter": int(cfg.solver.get("max_iter", 200)),
    }


def _mode_kwargs(cfg: RunConfig) -> dict:
    if cfg.mode == "exact":
        return {}
    return {"shots": cfg.shots, "sample_seed": cfg.sample_seed}


def _sweep_values(cfg: RunConfig, available: int) -> list[int]:
    m_sweep = cfg.ansatz.get("m_sweep")
    n_states = cfg.ansatz.get("n_states")
    if m_sweep:
        values = sorted({int(m) for m in m_sweep})
    elif n_states:
        values = [int(n_states)]
    else:
        values = [available]
    bad = [m for m in values if m > available]
    if bad:
        raise ConfigError(
            [f"requested ansatz sizes {bad} exceed the {available} generated strings"]
        )
    return values


def _solve_point(args):
    overlaps, m, sense, solver_kwargs = args
    value, _beta, status, solution, _basis = solve_normalized(
        overlaps.restricted(m), sense=sense, **solver_kwargs
    )
    dual = solution.dual_residual if solution is not None else math.nan  # eig path: no certificate
    return m, value, status.value, dual


def _run_sweep(overlaps, m_values, sense, solver_kwargs, jobs):
    tasks = [(overlaps, m, sense, solver_kwargs) for m in m_values]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_solve_point, tasks))
    else:
        results = [_solve_point(t) for t in tasks]
    return sorted(results, key=lambda r: r[0])


# ---------------------------------------------------------------------------
# commands


def run_nse(cfg: RunConfig) -> int:
    return _run_eig(cfg, sense="min", value_name="energy")


def run_eigmax(cfg: RunConfig) -> int:
    return _run_eig(cfg, sense="max", value_name="eigenvalue")


def _run_eig(cfg: RunConfig, sense: str, value_name: str) -> int:
    h = _build_hamiltonian(cfg)
    seed = resolve_seed_state(cfg.state.get("kind", "plus"), h, **_state_kwargs(cfg))
    order = int(cfg.ansatz.get("krylov_order", 2))
    full = krylov_ansatz(h, seed, order)
    m_values = _sweep_values(cfg, len(full))
    overlaps = build_overlaps(full.take(max(m_values)), objective=h, **_mode_kwargs(cfg))
    jobs = int(cfg.extra.get("jobs", os.cpu_count() or 1))
    results = _run_sweep(overlaps, m_values, sense, _solver_kwargs(cfg), jobs)

    reference = math.nan
    if h.n_qubits <= 10:
        evals = oracle.spectrum(h).eigenvalues
        reference = float(evals[0] if sense == "min" else evals[-1])
    rows = []
    for m, value, status, dual in results:
        delta = abs(value - reference) if not math.isnan(reference) else math.nan
        rows.append((m, value, delta, dual, status))
    write_csv(
        cfg.output or "-",
        cfg,
        ["m", value_name, f"delta_{value_name}", "dual_residual", "status"],
        rows,
    )
    return _statuses_exit_code(r[4] for r in rows)


def run_excited(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    solver = solvers.ExcitedStatesSolver(
        n_excited=int(cfg.extra.get("n_excited", 3)),
        seed_state=cfg.state.get("kind", "random"),
        krylov_order=int(cfg.ansatz.get("krylov_order", 2)),
        n_states=cfg.ansatz.get("n_states"),
        mode=cfg.mode,
        shots=cfg.shots,
        sample_seed=cfg.sample_seed,
        **_state_kwargs(cfg),
        **_solver_kwargs(cfg),
    )
    solver.fit(h)
    max_residual = float(solver.orthogonality_residuals_.max(initial=0.0))
    rows = []
    for level, status in enumerate(solver.statuses_):
        energy = solver.energies_[level] if level < len(solver.energies_) else math.nan
        rows.append((level, energy, max_residual, status.value))
    write_csv(cfg.output or "-", cfg, ["level", "energy", "max_ortho_residual", "status"], rows)
    return _statuses_exit_code(r[3] for r in rows)


def run_symmetry(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    symmetry_name = cfg.extra.get("symmetry", "magnetization")
    sectors = cfg.extra.get("sector_values")
    if sectors is None:
        sectors = [cfg.extra.get("sector_value", 0.0)]
    rows = []
    for sector in sectors:
        solver = solvers.SymmetrySectorSolver(
            symmetry=symmetry_name,
            sector_value=float(sector),
            seed_state=cfg.state.get("kind", "random"),
            krylov_order=int(cfg.ansatz.get("krylov_order", 2)),
            n_states=cfg.ansatz.get("n_states"),
            mode=cfg.mode,
            shots=cfg.shots,
            sample_seed=cfg.sample_seed,
            **_state_kwargs(cfg),
            **_solver_kwargs(cfg),
        ).fit(h)
        reference = math.nan
        if h.n_qubits <= 10:
            try:
                reference = oracle.sector_minimum(
                    h, solver._resolve_symmetry(h), float(sector)
                )
            except oracle.EmptySectorError:
                reference = math.nan
        rows.append((sector, len(solver.ansatz_), solver.energy_, reference,
                     solver.status_.value))
    write_csv(
        cfg.output or "-",
        cfg,
        ["sector", "m", "energy", "sector_minimum", "status"],
        rows,
    )
    return _statuses_exit_code(r[4] for r in rows)


def run_discriminate(cfg: RunConfig) -> int:
    angles = cfg.extra.get("angles")
    if angles is None:
        angles = [cfg.extra.get("angle", math.pi / 4)]
    eps = float(cfg.extra.get("error_budget", 0.0))
    n_qubits = int(cfg.extra.get("n_qubits", 6))
    rows = []
    for angle in angles:
        instance = solvers.two_state_discrimination_instance(
            angle=float(angle),
            n_qubits=n_qubits,
            n_strings=int(cfg.extra.get("n_strings", 12)),
            layers=int(cfg.state.get("layers", 4)),
            seed=int(cfg.extra.get("instance_seed", 0)),
            error_budget=eps,
        )
        disc = solvers.UnambiguousDiscriminator(
            error_budget=eps, **_solver_kwargs(cfg)
        ).fit(instance)
        mean_error = float(disc.error_rates_.mean()) if disc.error_rates_ is not None else math.nan
        rows.append(
            (
                float(angle),
                eps,
                disc.q_correct_,
                1.0 - math.cos(float(angle)),
                disc.q_unknown_,
                mean_error,
                disc.status_.value,
            )
        )
    write_csv(
        cfg.output or "-",
        cfg,
        ["angle", "error_budget", "q_correct", "q_correct_pure_optimum", "q_unknown",
         "mean_error", "status"],
        rows,
    )
    return _statuses_exit_code(r[6] for r in rows)


def _load_graph(spec: dict) -> models.Graph:
    kind = spec.get("kind", "chsh")
    if kind == "cycle":
        return models.cycle_graph(int(spec["n"]))
    if kind == "complete":
        return models.complete_graph(int(spec["n"]))
    if kind == "chsh":
        return models.chsh_graph()
    if kind == "file":
        with open(spec["path"]) as fh:
            return models.Graph.from_text(fh.read())
    raise ConfigError([f"unknown graph kind {kind!r}"])


def run_lovasz(cfg: RunConfig) -> int:
    graph = _load_graph(cfg.extra.get("graph", {"kind": "chsh"}))
    solve_mode = cfg.extra.get("solve_mode", "direct")
    rows = []
    if solve_mode == "direct":
        solver = solvers.LovaszThetaSolver(mode="direct", **_solver_kwargs(cfg)).fit(graph)
        rows.append(("direct", graph.n_vertices, solver.theta_, solver.status_.value))
    else:
        n_qubits = max(1, math.ceil(math.log2(graph.n_vertices)))
        m_values = _sweep_values(cfg, 1 << n_qubits)
        for m in m_values:
            solver = solvers.LovaszThetaSolver(
                mode="ansatz",
                seed_state=cfg.state.get("kind", "zero"),
                n_states=m,
                layers=int(cfg.state.get("layers", 4)),
                circuit_seed=int(cfg.state.get("circuit_seed", 0)),
                **_solver_kwargs(cfg),
            ).fit(graph)
            rows.append((m, graph.n_vertices, solver.theta_, solver.status_.value))
    write_csv(cfg.output or "-", cfg, ["m", "n_vertices", "theta", "status"], rows)
    return _statuses_exit_code(r[3] for r in rows)


def run_xor(cfg: RunConfig) -> int:
    game = models.XorGame.from_config(cfg.extra.get("game", {"name": "chsh"}))
    solve_mode = cfg.extra.get("solve_mode", "direct")
    rows = []
    if solve_mode == "direct":
        solver = solvers.XorGameSolver(mode="direct", **_solver_kwargs(cfg)).fit(game)
        rows.append(("direct", solver.bias_, solver.value_, solver.status_.value))
    else:
        h = game.h_matrix()
        n_qubits = max(1, math.ceil(math.log2(h.shape[0])))
        m_values = _sweep_values(cfg, 1 << n_qubits)
        for m in m_values:
            solver = solvers.XorGameSolver(
                mode="ansatz",
                seed_state=cfg.state.get("kind", "zero"),
                n_states=m,
                layers=int(cfg.state.get("layers", 4)),
                circuit_seed=int(cfg.state.get("circuit_seed", 0)),
                **_solver_kwargs(cfg),
            ).fit(game)
            rows.append((m, solver.bias_, solver.value_, solver.status_.value))
    classical = oracle.classical_xor_value(game.pi, game.f)
    rows = [row + (classical,) for row in rows]
    write_csv(cfg.output or "-", cfg, ["m", "bias", "value", "status", "classical_value"], rows)
    return _statuses_exit_code(r[3] for r in rows)


def run_rank1(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    reducer = solvers.RankOneReducer(
        seed_state=cfg.state.get("kind", "zero"),
        krylov_order=int(cfg.ansatz.get("krylov_order", 2)),
        n_states=cfg.ansatz.get("n_states"),
        mode=cfg.mode,
        shots=cfg.shots,
        sample_seed=cfg.sample_seed,
        layers=int(cfg.state.get("layers", 4)),
        anneal_time=float(cfg.state.get("anneal_time", 0.3)),
        circuit_seed=int(cfg.state.get("circuit_seed", 0)),
    ).fit(h)
    value = reducer.value_ if reducer.value_ is not None else math.nan
    rows = [
        (
            len(reducer.ansatz_),
            len(reducer.constraint_matrices_),
            reducer.solvable_,
            value,
        )
    ]
    write_csv(cfg.output or "-", cfg, ["m", "n_constraints", "solvable", "value"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# canned figure sweeps


def _figure_fig2a(cfg: RunConfig):
    n = int(cfg.extra.get("max_qubits", 8))
    h = models.ising_hamiltonian(n, 1.0, 1.0)
    exact = float(oracle.spectrum(h).eigenvalues[0]) if n <= 10 else math.nan
    rows = []
    for label, kind, extra in (
        ("plus", "plus", {}),
        ("random", "random", {"layers": 4}),
        ("annealing", "annealing", {"layers": 4}),
    ):
        seed = resolve_seed_state(
            kind, h, layers=extra.get("layers", 4),
            anneal_time=float(cfg.state.get("anneal_time", 0.3)),
            circuit_seed=int(cfg.state.get("circuit_seed", 0)),
        )
        full = krylov_ansatz(h, seed, 2)
        m_values = sorted(set(np.linspace(1, len(full), 16, dtype=int).tolist()))
        overlaps = build_overlaps(full.take(max(m_values)), objective=h)
        for m in m_values:
            value, _b, status, _s, _basis = solve_normalized(
                overlaps.restricted(m), sense="min", method="eig"
            )
            rows.append((label, m, value, abs(value - exact), status.value))
    return ["seed", "m", "energy", "delta_e", "status"], rows


def _figure_scaling(cfg: RunConfig, variants):
    max_n = int(cfg.extra.get("max_qubits", 8))
    t_grid = cfg.extra.get("t_grid", [0.1, 0.2, 0.3, 0.5, 0.7])
    rows = []
    for label, h_field, layer_rule in variants:
        for n in range(4, max_n + 1, 2):
            h = models.ising_hamiltonian(n, g=1.0, h=h_field)
            exact = float(oracle.spectrum(h).eigenvalues[0])
            layers = max(1, layer_rule(n))
            hz, hx = models.ising_split(n, g=1.0, h=h_field)
            for t in t_grid:
                from .states import QuantumAnnealingState

                seed = QuantumAnnealingState(layers=layers, total_time=float(t), hz=hz, hx=hx)
                state = prepare(seed, n)
                e_qa = float(
                    sum(
                        (coeff * state.expectation(string)).real
                        for coeff, string in h.terms()
                    )
                )
                delta_qa = e_qa - exact
                full = krylov_ansatz(h, seed, 1)
                m_values = sorted({max(1, int(round(f * 3 * n))) for f in (1 / 3, 2 / 3, 1.0)})
                overlaps = build_overlaps(full.take(min(max(m_values), len(full))), objective=h)
                for m in m_values:
                    if m > len(full):
                        continue
                    value, _b, status, _s, _basis = solve_normalized(
                        overlaps.restricted(m), sense="min", method="eig"
                    )
                    delta_nse = max(value - exact, 1e-16)
                    rows.append(
                        (
                            label,
                            n,
                            float(t),
                            m,
                            m / (3.0 * n),
                            delta_qa,
                            delta_nse,
                            delta_qa / delta_nse,
                            status.value,
                        )
                    )
    return (
        ["variant", "n", "t", "m", "m_star", "delta_qa", "delta_nse", "ratio", "status"],
        rows,
    )


def _figure_fig2b(cfg: RunConfig):
    return _figure_scaling(cfg, [("h1_pN2", 1.0, lambda n: n // 2)])


def _figure_fig8(cfg: RunConfig):
    return _figure_scaling(
        cfg,
        [
            ("h2_pN2", 2.0, lambda n: n // 2),
            ("h05_pN2", 0.5, lambda n: n // 2),
            ("h1_pN", 1.0, lambda n: n),
            ("h1_pN4", 1.0, lambda n: max(1, n // 4)),
        ],
    )


def _figure_fig3(cfg: RunConfig):
    n = int(cfg.extra.get("max_qubits", 6))
    rows = []
    h_ti = models.ising_hamiltonian(n, g=0.0, h=1.0)
    parity = models.spin_flip_parity(n)
    h_he = models.heisenberg_hamiltonian(n, h=1.0)
    mag = models.magnetization(n)
    cases = [("transverse_ising_parity", h_ti, parity, (1.0, -1.0))]
    cases.append(("heisenberg_number", h_he, mag, tuple(float(q) for q in range(-n, n + 1, 2))))
    for label, h, sym, sectors in cases:
        full = krylov_ansatz(h, resolve_seed_state("random", h, circuit_seed=1), 2)
        m_values = sorted(set(np.linspace(2, len(full), 8, dtype=int).tolist()))
        for sector in sectors:
            try:
                e0 = oracle.sector_minimum(h, sym, sector)
            except oracle.EmptySectorError:
                e0 = math.nan
            for m in m_values:
                solver = solvers.SymmetrySectorSolver(
                    symmetry=sym,
                    sector_value=sector,
                    seed_state="random",
                    circuit_seed=1,
                    krylov_order=2,
                    n_states=m,
                ).fit(h)
                rows.append((label, sector, m, solver.energy_, e0, solver.status_.value))
    return ["model", "sector", "m", "energy", "sector_minimum", "status"], rows


def _figure_fig4(cfg: RunConfig):
    n_seeds = int(cfg.extra.get("n_seeds", 20))
    rows = []
    for n in (4, 6, 8, 10):
        if n > int(cfg.extra.get("max_qubits", 10)):
            continue
        for seed in range(n_seeds):
            c = models.random_pauli_operator(n, 8, seed=seed)
            exact = float(oracle.spectrum(c).eigenvalues[-1])
            full = krylov_ansatz(c, resolve_seed_state("zero"), 8)
            m_values = sorted(
                {2, 4, 8, 16, 32, 64, 128, 256} & set(range(1, len(full) + 1))
            ) or [len(full)]
            overlaps = build_overlaps(full.take(max(m_values)), objective=c)
            for m in m_values:
                value, _b, status, _s, _basis = solve_normalized(
                    overlaps.restricted(m), sense="max", method="eig"
                )
                rows.append((n, seed, m, max(exact - value, 0.0), status.value))
    return ["n", "seed", "m", "delta_lambda", "status"], rows


def _figure_fig5(cfg: RunConfig):
    angles = np.linspace(0.1, math.pi / 2, 8)
    rows = []
    for eps in (0.0, 0.05, 0.1):
        for angle in angles:
            instance = solvers.two_state_discrimination_instance(
                angle=float(angle), n_qubits=5, n_strings=10, seed=1, error_budget=eps
            )
            disc = solvers.UnambiguousDiscriminator(error_budget=eps).fit(instance)
            rows.append(
                (
                    float(angle),
                    eps,
                    disc.q_correct_,
                    disc.q_unknown_,
                    1.0 - math.cos(float(angle)),
                    disc.status_.value,
                )
            )
    return ["angle", "error_budget", "q_correct", "q_unknown", "pure_optimum", "status"], rows


def _figure_fig6a(cfg: RunConfig):
    graph = models.chsh_graph()
    exact = 2.0 + math.sqrt(2.0)
    rows = []
    for kind in ("zero", "random"):
        for m in range(1, 9):
            solver = solvers.LovaszThetaSolver(
                mode="ansatz", seed_state=kind, n_states=m, circuit_seed=2
            ).fit(graph)
            err = abs(solver.theta_ - exact) if solver.status_ is SolveStatus.OPTIMAL else math.nan
            rows.append((kind, m, solver.theta_, err, solver.status_.value))
    return ["seed", "m", "theta", "error", "status"], rows


def _figure_fig6b(cfg: RunConfig):
    game = models.XorGame.chsh()
    exact = math.cos(math.pi / 8) ** 2
    rows = []
    for kind in ("zero", "random"):
        for m in range(1, 5):
            solver = solvers.XorGameSolver(
                mode="ansatz", seed_state=kind, n_states=m, circuit_seed=2
            ).fit(game)
            err = abs(solver.value_ - exact) if solver.status_ is SolveStatus.OPTIMAL else math.nan
            rows.append((kind, m, solver.value_, err, solver.status_.value))
    return ["seed", "m", "value", "error", "status"], rows


_FIGURES = {
    "fig2a": _figure_fig2a,
    "fig2b": _figure_fig2b,
    "fig3": _figure_fig3,
    "fig4": _figure_fig4,
    "fig5": _figure_fig5,
    "fig6a": _figure_fig6a,
    "fig6b": _figure_fig6b,
    "fig8": _figure_fig8,
}


def run_figures(cfg: RunConfig) -> int:
    which = cfg.extra.get("figure", "all")
    names = list(_FIGURES) if which == "all" else [which]
    unknown = [n for n in names if n not in _FIGURES]
    if unknown:
        raise ConfigError([f"unknown figure(s) {unknown}; choose from {sorted(_FIGURES)}"])
    out_dir = cfg.output or "figures_out"
    for name in names:
        header, rows = _FIGURES[name](cfg)
        write_csv(os.path.join(out_dir, f"{name}.csv"), cfg, header, rows)
        print(f"wrote {os.path.join(out_dir, name + '.csv')} ({len(rows)} rows)")
    return EXIT_OK


_RUNNERS = {
    "nse": run_nse,
    "excited": run_excited,
    "symmetry": run_symmetry,
    "eigmax": run_eigmax,
    "discriminate": run_discriminate,
    "lovasz": run_lovasz,
    "xor": run_xor,
    "rank1": run_rank1,
    "figures": run_figures,
}


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulisdp",
        description="Reduced semidefinite programs over Pauli-string ansatz spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", help="output CSV path (default stdout)")
        p.add_argument("--model", choices=sorted(_MODEL_KINDS))
        p.add_argument("--n", type=int, help="qubit / vertex count for built-in models")
        p.add_argument("--g", type=float, help="longitudinal field")
        p.add_argument("--field", type=float, help="transverse / coupling field h")
        p.add_argument("--terms", type=int, help="random-model term count")
        p.add_argument("--model-seed", type=int, help="random-model seed")
        p.add_argument("--model-file", help="Hamiltonian text file")
        p.add_argument("--seed-state", choices=sorted(_STATE_KINDS))
        p.add_argument("--layers", type=int)
        p.add_argument("--anneal-time", type=float)
        p.add_argument("--circuit-seed", type=int)
        p.add_argument("--krylov-order", type=int)
        p.add_argument("--n-states", type=int)
        p.add_argument("--m-sweep", help="comma list or start:stop[:step]")
        p.add_argument("--mode", choices=["exact", "shots"])
        p.add_argument("--shots", type=int)
        p.add_argument("--sample-seed", type=int)
        p.add_argument("--jobs", type=int, help="sweep worker processes")
        p.add_argument("--tol-feas", type=float)
        p.add_argument("--tol-gap", type=float)
        if command == "excited":
            p.add_argument("--n-excited", type=int)
        if command == "symmetry":
            p.add_argument("--symmetry", choices=["parity", "magnetization"])
            p.add_argument("--sector", type=float)
            p.add_argument("--sectors", help="comma list of sector values")
        if command == "discriminate":
            p.add_argument("--angle", type=float)
            p.add_argument("--angles", help="comma list of angles")
            p.add_argument("--error-budget", type=float)
            p.add_argument("--n-strings", type=int)
            p.add_argument("--instance-seed", type=int)
        if command == "lovasz":
            p.add_argument("--graph", help="cycle:N, complete:N, chsh, or an edge-list file")
            p.add_argument("--direct", action="store_true")
            p.add_argument("--ansatz", action="store_true")
        if command == "xor":
            p.add_argument("--game", help="'chsh' or a JSON game file")
            p.add_argument("--direct", action="store_true")
            p.add_argument("--ansatz", action="store_true")
        if command == "figures":
            p.add_argument("--figure", default="all", help="figure name or 'all'")
            p.add_argument("--max-qubits", type=int)
            p.add_argument("--n-seeds", type=int)
            p.add_argument("--t-grid", help="comma list of annealing times")
    return parser


def _parse_m_sweep(text: str) -> list[int]:
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        start, stop = parts[0], parts[1]
        step = parts[2] if len(parts) > 2 else 1
        return list(range(start, stop + 1, step))
    return [int(v) for v in text.split(",")]


def _merge_args(args: argparse.Namespace) -> dict:
    raw: dict = {"command": args.command}
    if args.config:
        raw.update(_load_json_object(args.config))
        raw["command"] = args.command
    model = dict(raw.get("model", {}))
    if args.model:
        model["kind"] = args.model
    if args.n is not None:
        if args.command == "discriminate":
            raw["n_qubits"] = args.n
        else:
            model["n"] = args.n
    if args.g is not None:
        model["g"] = args.g
    if args.field is not None:
        model["h"] = args.field
    if getattr(args, "terms", None) is not None:
        model["terms"] = args.terms
    if getattr(args, "model_seed", None) is not None:
        model["seed"] = args.model_seed
    if getattr(args, "model_file", None):
        model = {"kind": "file", "path": args.model_file}
    if model:
        raw["model"] = model

    state = dict(raw.get("state", {}))
    for flag, key in (
        ("seed_state", "kind"),
        ("layers", "layers"),
        ("anneal_time", "anneal_time"),
        ("circuit_seed", "circuit_seed"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            state[key] = value
    if state:
        raw["state"] = state

    ansatz = dict(raw.get("ansatz", {}))
    if args.krylov_order is not None:
        ansatz["krylov_order"] = args.krylov_order
    if args.n_states is not None:
        ansatz["n_states"] = args.n_states
    if args.m_sweep:
        ansatz["m_sweep"] = _parse_m_sweep(args.m_sweep)
    if ansatz:
        raw["ansatz"] = ansatz

    if args.mode:
        raw["mode"] = args.mode
    if args.shots is not None:
        raw["shots"] = args.shots
    if args.sample_seed is not None:
        raw["sample_seed"] = args.sample_seed
    if args.out:
        raw["output"] = args.out
    if args.jobs is not None:
        raw["jobs"] = args.jobs

    solver = dict(raw.get("solver", {}))
    if args.tol_feas is not None:
        solver["tol_feas"] = args.tol_feas
    if args.tol_gap is not None:
        solver["tol_gap"] = args.tol_gap
    if solver:
        raw["solver"] = solver

    if args.command == "excited" and getattr(args, "n_excited", None) is not None:
        raw["n_excited"] = args.n_excited
    if args.command == "symmetry":
        if getattr(args, "symmetry", None):
            raw["symmetry"] = args.symmetry
        if getattr(args, "sector", None) is not None:
            raw["sector_value"] = args.sector
        if getattr(args, "sectors", None):
            raw["sector_values"] = [float(v) for v in args.sectors.split(",")]
    if args.command == "discriminate":
        if getattr(args, "angle", None) is not None:
            raw["angle"] = args.angle
        if getattr(args, "angles", None):
            raw["angles"] = [float(v) for v in args.angles.split(",")]
        if getattr(args, "error_budget", None) is not None:
            raw["error_budget"] = args.error_budget
        if getattr(args, "n_strings", None) is not None:
            raw["n_strings"] = args.n_strings
        if getattr(args, "instance_seed", None) is not None:
            raw["instance_seed"] = args.instance_seed
    if args.command == "lovasz":
        if getattr(args, "graph", None):
            raw["graph"] = _parse_graph_flag(args.graph)
        if getattr(args, "ansatz", False):
            raw["solve_mode"] = "ansatz"
        elif getattr(args, "direct", False):
            raw["solve_mode"] = "direct"
    if args.command == "xor":
        if getattr(args, "game", None):
            if args.game == "chsh":
                raw["game"] = {"name": "chsh"}
            else:
                raw["game"] = _load_json_object(args.game)
        if getattr(args, "ansatz", False):
            raw["solve_mode"] = "ansatz"
        elif getattr(args, "direct", False):
            raw["solve_mode"] = "direct"
    if args.command == "figures":
        raw["figure"] = args.figure
        if getattr(args, "max_qubits", None) is not None:
            raw["max_qubits"] = args.max_qubits
        if getattr(args, "n_seeds", None) is not None:
            raw["n_seeds"] = args.n_seeds
        if getattr(args, "t_grid", None):
            raw["t_grid"] = [float(v) for v in args.t_grid.split(",")]
    return raw


def _parse_graph_flag(text: str) -> dict:
    if text == "chsh":
        return {"kind": "chsh"}
    if text.startswith("cycle:"):
        return {"kind": "cycle", "n": int(text.split(":")[1])}
    if text.startswith("complete:"):
        return {"kind": "complete", "n": int(text.split(":")[1])}
    return {"kind": "file", "path": text}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _merge_args(args)
        cfg = validate_config(raw)
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
