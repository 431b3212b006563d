"""Command-line front door: per-problem runs, sweeps and canned figure data.

Every command writes CSV with a metadata preamble (config hash, seeds,
tool version, timestamp) followed by a header naming every column.  Runs
are reproducible: identical config and seeds give byte-identical output
except for the timestamp line.

Exit codes: 0 success (and ``--help``), 1 configuration or usage error,
2 infeasible result on a single-point run (sweeps record per-row statuses
instead), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__, models, oracle, solvers
from .pauli import PauliSum, SettingError
from .sdp import SolveStatus

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
# the commands that read a model, and so take the model flags
MODEL_COMMANDS = ("nse", "excited", "symmetry", "eigmax", "rank1")


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


def _lenient(convert):
    """``convert`` of a flag's text, or the text as it is, for ``validate_config`` to report."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, TypeError):
            return text
    return parse


_INT, _FLOAT = _lenient(int), _lenient(float)


@_lenient
def _parse_m_sweep(text: str) -> list[int]:
    """``start:stop[:step]`` (stop included) or a comma list of sizes."""
    if ":" in text:
        start, stop, *step = (int(v) for v in text.split(":"))
        return list(range(start, stop + 1, *step))
    return [int(v) for v in text.split(",")]


@_lenient
def _parse_numbers(text: str) -> list[float]:
    """A comma list of numbers."""
    return [float(v) for v in text.split(",")]


def _parse_graph_flag(text: str) -> dict:
    """``chsh``, ``cycle:N``, ``complete:N`` or an edge-list file path.

    A count that does not parse is kept as text (see ``_lenient``).
    """
    if text == "chsh":
        return {"kind": "chsh"}
    kind, _, n = text.partition(":")
    if kind in ("cycle", "complete"):
        return {"kind": kind, "n": int(n) if n.isdecimal() else n}
    return {"kind": "file", "path": text}


def _parse_game_flag(text: str) -> dict:
    """``chsh`` or a JSON game file, checked here so that its errors name the file."""
    if text == "chsh":
        return {"name": "chsh"}
    game = _load_json_object(text)
    errors = _game_violations(text, game)
    if errors:
        raise ConfigError(errors)
    return game


_SECTIONS = ("model", "state", "ansatz", "solver")

# tuples, not sets: a kind read from JSON may be an unhashable list or object
_MODEL_KINDS = ("ising", "heisenberg", "random_pauli", "file")
_STATE_KINDS = ("zero", "plus", "random", "annealing")
_GRAPH_KINDS = ("cycle", "complete", "chsh", "file")
_SYMMETRIES = ("parity", "magnetization")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0


def _is_list_of(accepts):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(accepts(x) for x in v)


# (section or None for the top level, key, accepts, requirement) of every
# typed field that is checked when present
_FIELD_RULES = [
    ("model", "g", _is_number, "a number"),
    ("model", "n", lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    ("model", "h", _is_number, "a number"),
    ("model", "periodic", lambda v: isinstance(v, bool), "true or false"),
    ("model", "terms", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    ("model", "seed", _is_int, "an integer"),
    ("model", "path", lambda v: isinstance(v, str), "a file path"),
    ("state", "layers", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    ("state", "anneal_time", _is_positive, "a positive number"),
    ("state", "circuit_seed", _is_int, "an integer"),
    ("ansatz", "krylov_order", lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    ("ansatz", "n_states", lambda v: v is None or (_is_int(v) and v >= 1),
     "a positive integer"),
    ("ansatz", "m_sweep", lambda v: v is None or _is_list_of(lambda m: _is_int(m) and m >= 1)(v),
     "a non-empty list of positive integers"),
    ("solver", "tol_feas", _is_positive, "a positive number"),
    ("solver", "tol_gap", _is_positive, "a positive number"),
    ("solver", "rank_tol", lambda v: v is None or _is_positive(v), "a positive number"),
    ("solver", "max_iter", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (None, "shots", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (None, "sample_seed", lambda v: _is_int(v) and -2**63 <= v < 2**63,
     "an integer in [-2**63, 2**63)"),
    (None, "n_excited", lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    (None, "symmetry", lambda v: v in _SYMMETRIES, f"one of {_SYMMETRIES}"),
    (None, "sector_value", _is_number, "a number"),
    (None, "sector_values", _is_list_of(_is_number), "a non-empty list of numbers"),
    (None, "angle", _is_number, "a number"),
    (None, "angles", _is_list_of(_is_number), "a non-empty list of numbers"),
    (None, "error_budget", lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    (None, "n_strings", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (None, "n_qubits", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (None, "instance_seed", _is_int, "an integer"),
    (None, "max_qubits", lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    (None, "n_seeds", lambda v: _is_int(v) and v >= 1, "a positive integer"),
    (None, "t_grid", _is_list_of(_is_positive), "a non-empty list of positive numbers"),
]
# section keys that validate_config checks itself, outside _FIELD_RULES
_UNTYPED_KEYS = {"model": ("kind",), "state": ("kind",), "ansatz": (), "solver": ()}


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


def _game_violations(source: str, game) -> list[str]:
    """What ``XorGame.from_config`` rejects in a game object, as violations."""
    if not isinstance(game, dict):
        return [f"{source}: game must be an object"]
    if game.get("name") != "chsh" and not {"pi", "f"} <= game.keys():
        return [f"{source}: game needs 'pi' and 'f' tables, or the name 'chsh'"]
    try:
        models.XorGame.from_config(game)
    except (TypeError, ValueError) as exc:
        return [f"{source}: game: {exc}"]
    return []


def _direct_theta_violations(source: str, n_vertices: int) -> list[str]:
    cap = oracle.DIRECT_THETA_MAX_VERTICES
    if n_vertices <= cap:
        return []
    return [f"{source}: graph has {n_vertices} vertices, over the {cap}-vertex cap of "
            "a direct theta solve (use --ansatz)"]


def _instance_settings(raw: dict, state: dict) -> dict:
    """The ``two_state_discrimination_instance`` arguments a config sets.

    Arguments the config leaves out take the function's own defaults, so the
    instance ``validate_config`` checks is the one ``run_discriminate`` builds.
    """
    params = inspect.signature(solvers.two_state_discrimination_instance).parameters
    given = {"n_qubits": raw.get("n_qubits"), "n_strings": raw.get("n_strings"),
             "layers": state.get("layers"), "seed": raw.get("instance_seed")}
    return {name: params[name].default if value is None else value
            for name, value in given.items()}


def parse_config(path: str) -> RunConfig:
    """Load and fully validate a JSON config; reports every violation."""
    return validate_config(_load_json_object(path), source=path)


def validate_config(raw: dict, source: str = "<config>") -> RunConfig:
    errors = []
    if not isinstance(raw, dict):
        raise ConfigError([f"{source}: top level must be an object"])
    unknown = set(raw) - _known_keys()
    for key in sorted(unknown):
        errors.append(f"{source}: unknown key {key!r}")
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(f"{source}: 'command' must be one of {COMMANDS}, got {command!r}")

    sections = {}
    for key in _SECTIONS:
        sections[key] = raw.get(key, {})
        if not isinstance(sections[key], dict):
            errors.append(f"{source}: {key} must be an object")
            sections[key] = {}
    model, state, ansatz, solver = (sections[key] for key in _SECTIONS)
    for section, key, accepts, requirement in _FIELD_RULES:
        values = raw if section is None else sections[section]
        if key in values and not accepts(values[key]):
            name = key if section is None else f"{section}.{key}"
            errors.append(f"{source}: {name} must be {requirement}, got {values[key]!r}")

    if model:
        kind = model.get("kind")
        if kind not in _MODEL_KINDS:
            errors.append(
                f"{source}: model.kind must be one of {sorted(_MODEL_KINDS)}, got {kind!r}"
            )
        elif kind in ("ising", "heisenberg", "random_pauli"):
            n = model.get("n")
            if "n" not in model:
                errors.append(f"{source}: model.n is required for kind {kind!r}")
            elif kind == "random_pauli" and "terms" not in model:
                errors.append(f"{source}: model.terms is required for kind 'random_pauli'")
            elif kind == "random_pauli" and _is_int(model["terms"]) and _is_int(n) and (
                model["terms"] > 4 ** min(n, 32)
            ):
                errors.append(f"{source}: model.terms={model['terms']} exceeds the {4 ** n} "
                              f"distinct Pauli strings on model.n={n}")
        elif kind == "file" and not model.get("path"):
            errors.append(f"{source}: model.path is required for kind 'file'")

    if state and (kind := state.get("kind")) not in _STATE_KINDS:
        errors.append(f"{source}: state.kind must be one of {sorted(_STATE_KINDS)}, got {kind!r}")

    graph = raw.get("graph", {})
    if not isinstance(graph, dict):
        errors.append(f"{source}: graph must be an object")
    elif graph.get("kind", "chsh") not in _GRAPH_KINDS:
        errors.append(f"{source}: graph.kind must be one of {sorted(_GRAPH_KINDS)}")
    elif graph.get("kind") in ("cycle", "complete"):
        least = 2 if graph["kind"] == "cycle" else 1  # a 1-cycle is a self-loop
        if not (_is_int(graph.get("n")) and graph["n"] >= least):
            errors.append(
                f"{source}: graph.n must be an integer >= {least}, got {graph.get('n')!r}"
            )
        elif command == "lovasz" and raw.get("solve_mode", "direct") == "direct":
            errors += _direct_theta_violations(source, graph["n"])
    elif graph.get("kind") == "file" and not graph.get("path"):
        errors.append(f"{source}: graph.path is required for kind 'file'")

    if "game" in raw:
        errors += _game_violations(source, raw["game"])

    if command == "discriminate":
        instance = _instance_settings(raw, state)
        n_qubits, n_strings = instance["n_qubits"], instance["n_strings"]
        if _is_int(n_qubits) and _is_int(n_strings) and n_strings > 4 ** min(n_qubits, 32):
            errors.append(
                f"{source}: n_strings={n_strings} exceeds the {4 ** n_qubits} distinct "
                f"Pauli strings on n_qubits={n_qubits}"
            )

    mode = raw.get("mode", "exact")
    if mode not in ("exact", "shots"):
        errors.append(f"{source}: mode must be 'exact' or 'shots', got {mode!r}")

    for section in _SECTIONS:
        known = {*_UNTYPED_KEYS[section], *(k for s, k, *_rule in _FIELD_RULES if s == section)}
        errors += [f"{source}: unknown {section} option {key!r}"
                   for key in sections[section] if key not in known]
    if errors:
        raise ConfigError(errors)

    extra_keys = _known_keys() - {f.name for f in fields(RunConfig)}
    extra = {k: raw[k] for k in extra_keys if k in raw}
    return RunConfig(
        command=command,
        model=dict(model),
        state=dict(state),
        ansatz=dict(ansatz),
        mode=mode,
        shots=raw.get("shots", 1024),
        sample_seed=raw.get("sample_seed", 0),
        solver=dict(solver),
        output=raw.get("output"),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# output


def _config_hash(cfg: RunConfig) -> str:
    """Hash of every config field but the output path."""
    hashed = {key: value for key, value in asdict(cfg).items() if key != "output"}
    payload = json.dumps(hashed, sort_keys=True)
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


def _write_result(cfg: RunConfig, header: list[str], rows: list[tuple]) -> int:
    """Write a command's CSV; the exit code follows its ``status`` column."""
    write_csv(cfg.output or "-", cfg, header, rows)
    statuses = [row[header.index("status")] for row in rows]
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
    try:
        return models.build_model(cfg.model)
    except ValueError as exc:  # a model file that does not parse; built-in kinds are validated
        raise ConfigError([f"{cfg.model.get('path', 'model')}: {exc}"]) from None


def _solver_settings(cfg: RunConfig, solver_class, **defaults) -> dict:
    """Every setting of ``solver_class``, taken from the config by field name.

    Top-level keys and the keys of the state, ansatz and solver sections
    that name a field of the class set it (``state.kind`` sets
    ``seed_state``).  The exact/shots ``mode``, ``shots`` and
    ``sample_seed`` reach the Krylov solvers only: the graph and game
    solvers' ``mode`` is direct or ansatz.  A field that the config does not
    name takes the command's value from ``defaults``, else the library
    default.
    """
    named = {**cfg.extra, **cfg.state, **cfg.ansatz, **cfg.solver}
    if "kind" in cfg.state:
        named["seed_state"] = named.pop("kind")
    if issubclass(solver_class, solvers._KrylovSolver):
        named.update(mode=cfg.mode, shots=cfg.shots, sample_seed=cfg.sample_seed)
    settings = {**solver_class().get_params(), **defaults}
    settings.update((key, value) for key, value in named.items() if key in settings)
    return settings


def _sector_reference(h: PauliSum, symmetry: PauliSum, value: float, max_qubits: int) -> float:
    """``oracle.sector_minimum``, NaN above ``max_qubits`` or for a sector no eigenstate has."""
    if h.n_qubits > max_qubits:
        return math.nan
    try:
        return oracle.sector_minimum(h, symmetry, value)
    except oracle.EmptySectorError:
        return math.nan


# ---------------------------------------------------------------------------
# commands


def run_nse(cfg: RunConfig) -> int:
    return _run_eig(cfg, sense="min", value_name="energy")


def run_eigmax(cfg: RunConfig) -> int:
    return _run_eig(cfg, sense="max", value_name="eigenvalue")


def _run_eig(cfg: RunConfig, sense: str, value_name: str) -> int:
    h = _build_hamiltonian(cfg)
    settings = _solver_settings(cfg, solvers.GroundStateSolver)
    n_states = settings.pop("n_states")
    m_values = cfg.ansatz.get("m_sweep") or (None if n_states is None else [n_states])
    results = solvers.energy_sweep(h, m_values=m_values, sense=sense, **settings)
    reference = oracle.extreme_eigenvalue(h, sense) if h.n_qubits <= 10 else math.nan
    rows = [(m, value, abs(value - reference), dual, status) for m, value, status, dual in results]
    return _write_result(cfg, ["m", value_name, f"delta_{value_name}", "dual_residual", "status"],
                         rows)


def run_excited(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    settings = _solver_settings(cfg, solvers.ExcitedStatesSolver, seed_state="random")
    solver = solvers.ExcitedStatesSolver(**settings).fit(h)
    max_residual = float(solver.orthogonality_residuals_.max(initial=0.0))
    rows = []
    for level, status in enumerate(solver.statuses_):
        energy = solver.energies_[level] if level < len(solver.energies_) else math.nan
        rows.append((level, energy, max_residual, status.value))
    return _write_result(cfg, ["level", "energy", "max_ortho_residual", "status"], rows)


def run_symmetry(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    settings = _solver_settings(cfg, solvers.SymmetrySectorSolver)
    solver = solvers.SymmetrySectorSolver(**settings).fit(h)
    overlaps = solver.overlaps_  # every sector value is solved on one measurement
    symmetry = solver._resolve_symmetry(h)
    rows = []
    for sector in cfg.extra.get("sector_values", [settings["sector_value"]]):
        solver.set_params(sector_value=float(sector)).fit_overlaps(overlaps)
        reference = _sector_reference(h, symmetry, float(sector), max_qubits=10)
        rows.append((sector, len(solver.ansatz_), solver.energy_, reference,
                     solver.status_.value))
    return _write_result(cfg, ["sector", "m", "energy", "sector_minimum", "status"], rows)


def run_discriminate(cfg: RunConfig) -> int:
    angles = cfg.extra.get("angles")
    if angles is None:
        angles = [cfg.extra.get("angle", math.pi / 4)]
    settings = _solver_settings(cfg, solvers.UnambiguousDiscriminator)
    eps = float(settings["error_budget"])
    rows = []
    for angle in angles:
        instance = solvers.two_state_discrimination_instance(
            angle=float(angle), error_budget=eps, **_instance_settings(cfg.extra, cfg.state)
        )
        disc = solvers.UnambiguousDiscriminator(**settings).fit(instance)
        mean_error = float(disc.error_rates_.mean()) if disc.error_rates_ is not None else math.nan
        rows.append((float(angle), eps, disc.q_correct_, 1.0 - math.cos(float(angle)),
                     disc.q_unknown_, mean_error, disc.status_.value))
    return _write_result(cfg, ["angle", "error_budget", "q_correct", "q_correct_pure_optimum",
                               "q_unknown", "mean_error", "status"], rows)


def _load_graph(spec: dict) -> models.Graph:
    kind = spec.get("kind", "chsh")
    if kind == "cycle":
        return models.cycle_graph(spec["n"])
    if kind == "complete":
        return models.complete_graph(spec["n"])
    if kind == "chsh":
        return models.chsh_graph()
    with open(spec["path"]) as fh:
        text = fh.read()
    try:
        return models.Graph.from_text(text)
    except ValueError as exc:
        raise ConfigError([f"{spec['path']}: {exc}"]) from None


def _x_string_fits(cfg: RunConfig, solver_class, instance) -> list[tuple]:
    """(m, fitted solver) pairs of a graph or game command.

    One direct solve, with "direct" in place of m, or one X-string ansatz
    solve per requested size (by default the whole ansatz), m read from the
    fit.  The tolerances default to 1e-8, looser than the solvers' own 1e-9.
    """
    settings = _solver_settings(
        cfg, solver_class, mode=cfg.extra.get("solve_mode", "direct"), tol_feas=1e-8, tol_gap=1e-8
    )
    if settings["mode"] == "direct":
        return [("direct", solver_class(**settings).fit(instance))]
    fits = [solver_class(**{**settings, "n_states": m}).fit(instance)
            for m in sorted(set(cfg.ansatz.get("m_sweep") or [settings["n_states"]]))]
    return [(len(fit.ansatz_), fit) for fit in fits]


def run_lovasz(cfg: RunConfig) -> int:
    spec = cfg.extra.get("graph", {"kind": "chsh"})
    graph = _load_graph(spec)
    if cfg.extra.get("solve_mode", "direct") == "direct":
        errors = _direct_theta_violations(spec.get("path", "<graph>"), graph.n_vertices)
        if errors:
            raise ConfigError(errors)
    fits = _x_string_fits(cfg, solvers.LovaszThetaSolver, graph)
    rows = [(m, graph.n_vertices, s.theta_, s.status_.value) for m, s in fits]
    return _write_result(cfg, ["m", "n_vertices", "theta", "status"], rows)


def run_xor(cfg: RunConfig) -> int:
    game = models.XorGame.from_config(cfg.extra.get("game", {"name": "chsh"}))
    fits = _x_string_fits(cfg, solvers.XorGameSolver, game)
    classical = oracle.classical_xor_value(game.pi, game.f)
    rows = [(m, s.bias_, s.value_, s.status_.value, classical) for m, s in fits]
    return _write_result(cfg, ["m", "bias", "value", "status", "classical_value"], rows)


def run_rank1(cfg: RunConfig) -> int:
    h = _build_hamiltonian(cfg)
    reducer = solvers.RankOneReducer(**_solver_settings(cfg, solvers.RankOneReducer)).fit(h)
    value = reducer.value_ if reducer.value_ is not None else math.nan
    rows = [(len(reducer.ansatz_), len(reducer.constraint_matrices_), reducer.solvable_, value)]
    write_csv(cfg.output or "-", cfg, ["m", "n_constraints", "solvable", "value"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# canned figure sweeps


def _prefix_fits(solver, problem, sizes):
    """Yield (m, solver) at each size ``sizes(M)`` picks for the measured ansatz of M strings.

    One fit measures the whole ansatz; each size is solved on its prefix slice.
    """
    full = solver.fit(problem).overlaps_
    for m in sizes(len(solver.ansatz_)):
        yield m, solver.fit_overlaps(full.restricted(m))


def _figure_fig2a(cfg: RunConfig):
    n = int(cfg.extra.get("max_qubits", 8))
    h = models.ising_hamiltonian(n, 1.0, 1.0)
    exact = oracle.extreme_eigenvalue(h) if n <= 10 else math.nan
    # the config may set the annealing time and circuit seed; the rest is fixed
    seed_settings = {k: v for k, v in cfg.state.items() if k in ("anneal_time", "circuit_seed")}
    rows = []
    for kind in ("plus", "random", "annealing"):
        solver = solvers.GroundStateSolver(seed_state=kind, krylov_order=2, **seed_settings)
        for m, fit in _prefix_fits(
            solver, h, lambda size: sorted(set(np.linspace(1, size, 16, dtype=int).tolist()))
        ):
            rows.append((kind, m, fit.energy_, abs(fit.energy_ - exact), fit.status_.value))
    return ["seed", "m", "energy", "delta_e", "status"], rows


def _figure_scaling(cfg: RunConfig, variants):
    max_n = int(cfg.extra.get("max_qubits", 8))
    t_grid = cfg.extra.get("t_grid", [0.1, 0.2, 0.3, 0.5, 0.7])
    rows = []
    for label, h_field, layer_rule in variants:
        for n in range(4, max_n + 1, 2):
            h = models.ising_hamiltonian(n, g=1.0, h=h_field)
            exact = oracle.extreme_eigenvalue(h)
            for t in t_grid:
                solver = solvers.GroundStateSolver(
                    seed_state="annealing", layers=max(1, layer_rule(n)), anneal_time=float(t),
                    krylov_order=1,
                )
                for m, fit in _prefix_fits(
                    solver, h, lambda size: [m for m in (n, 2 * n, 3 * n) if m <= size]
                ):
                    # <H> of the annealed seed, measured on the identity string
                    delta_qa = float(fit.overlaps_.objective[0, 0].real) - exact
                    delta_nse = max(fit.energy_ - exact, 1e-16)
                    rows.append((label, n, float(t), m, m / (3.0 * n), delta_qa, delta_nse,
                                 delta_qa / delta_nse, fit.status_.value))
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
        # one measurement per model at the full Krylov size, sliced for each (sector, m)
        solver = solvers.SymmetrySectorSolver(
            symmetry=sym, seed_state="random", circuit_seed=1, krylov_order=2
        ).fit(h)
        full = solver.overlaps_
        m_values = sorted(set(np.linspace(2, len(solver.ansatz_), 8, dtype=int).tolist()))
        for sector in sectors:
            e0 = _sector_reference(h, sym, sector, max_qubits=12)
            solver.set_params(sector_value=sector)
            for m in m_values:
                solver.fit_overlaps(full.restricted(m))
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
            exact = oracle.extreme_eigenvalue(c, "max")
            solver = solvers.LargestEigenvalueSolver(seed_state="zero", krylov_order=8)
            for m, fit in _prefix_fits(
                solver, c,
                lambda size: [m for m in (2, 4, 8, 16, 32, 64, 128, 256) if m <= size] or [size],
            ):
                rows.append((n, seed, m, max(exact - fit.eigenvalue_, 0.0), fit.status_.value))
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
            rows.append((float(angle), eps, disc.q_correct_, disc.q_unknown_,
                         1.0 - math.cos(float(angle)), disc.status_.value))
    return ["angle", "error_budget", "q_correct", "q_unknown", "pure_optimum", "status"], rows


def _x_string_figure(solver_class, instance, exact: float, max_m: int, value_name: str):
    """Ansatz-mode value and error at every size 1..max_m, for the zero and random seeds."""
    rows = []
    for kind in ("zero", "random"):
        for m in range(1, max_m + 1):
            solver = solver_class(
                mode="ansatz", seed_state=kind, n_states=m, circuit_seed=2
            ).fit(instance)
            value = getattr(solver, f"{value_name}_")
            err = abs(value - exact) if solver.status_ is SolveStatus.OPTIMAL else math.nan
            rows.append((kind, m, value, err, solver.status_.value))
    return ["seed", "m", value_name, "error", "status"], rows


def _figure_fig6a(cfg: RunConfig):
    return _x_string_figure(
        solvers.LovaszThetaSolver, models.chsh_graph(), 2.0 + math.sqrt(2.0), 8, "theta"
    )


def _figure_fig6b(cfg: RunConfig):
    return _x_string_figure(
        solvers.XorGameSolver, models.XorGame.chsh(), math.cos(math.pi / 8) ** 2, 4, "value"
    )


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
    """The command-line parser; each flag's ``dest`` is the config path it sets."""
    parser = argparse.ArgumentParser(
        prog="paulisdp",
        description="Reduced semidefinite programs over Pauli-string ansatz spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, allow_abbrev=False)  # no --n read as --n-states
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--out", dest="output", help="output CSV path (default stdout)")
        if command in MODEL_COMMANDS:
            p.add_argument("--model", dest="model.kind", help=f"one of {sorted(_MODEL_KINDS)}")
            p.add_argument("--n", dest="model.n", type=_INT,
                           help="qubit count of a built-in model")
            p.add_argument("--g", dest="model.g", type=_FLOAT, help="longitudinal field")
            p.add_argument("--field", dest="model.h", type=_FLOAT,
                           help="transverse / coupling field h")
            p.add_argument("--terms", dest="model.terms", type=_INT, help="random-model term count")
            p.add_argument("--model-seed", dest="model.seed", type=_INT, help="random-model seed")
            # after the other model flags, since flags merge in this order: a
            # file replaces the whole model section
            p.add_argument("--model-file", dest="model", metavar="PATH",
                           type=lambda path: {"kind": "file", "path": path},
                           help="Hamiltonian text file")
        p.add_argument("--seed-state", dest="state.kind", help=f"one of {sorted(_STATE_KINDS)}")
        p.add_argument("--layers", dest="state.layers", type=_INT)
        p.add_argument("--anneal-time", dest="state.anneal_time", type=_FLOAT)
        p.add_argument("--circuit-seed", dest="state.circuit_seed", type=_INT)
        p.add_argument("--krylov-order", dest="ansatz.krylov_order", type=_INT)
        p.add_argument("--n-states", dest="ansatz.n_states", type=_INT)
        p.add_argument("--m-sweep", dest="ansatz.m_sweep", type=_parse_m_sweep,
                       help="comma list or start:stop[:step]")
        p.add_argument("--mode", help="exact or shots")
        p.add_argument("--shots", type=_INT)
        p.add_argument("--sample-seed", type=_INT)
        p.add_argument("--tol-feas", dest="solver.tol_feas", type=_FLOAT)
        p.add_argument("--tol-gap", dest="solver.tol_gap", type=_FLOAT)
        if command == "excited":
            p.add_argument("--n-excited", type=_INT)
        if command == "symmetry":
            p.add_argument("--symmetry", help=f"one of {_SYMMETRIES}")
            p.add_argument("--sector", dest="sector_value", type=_FLOAT)
            p.add_argument("--sectors", dest="sector_values", type=_parse_numbers,
                           help="comma list of sector values")
        if command == "discriminate":
            p.add_argument("--n", dest="n_qubits", type=_INT,
                           help="qubit count of the discrimination instance")
            p.add_argument("--angle", type=_FLOAT)
            p.add_argument("--angles", type=_parse_numbers, help="comma list of angles")
            p.add_argument("--error-budget", type=_FLOAT)
            p.add_argument("--n-strings", type=_INT)
            p.add_argument("--instance-seed", type=_INT)
        if command == "lovasz":
            p.add_argument("--graph", type=_parse_graph_flag,
                           help="cycle:N, complete:N, chsh, or an edge-list file")
        if command == "xor":
            p.add_argument("--game", type=_parse_game_flag, help="'chsh' or a JSON game file")
        if command in ("lovasz", "xor"):
            solve_mode = p.add_mutually_exclusive_group()
            solve_mode.add_argument("--direct", dest="solve_mode", action="store_const",
                                    const="direct")
            solve_mode.add_argument("--ansatz", dest="solve_mode", action="store_const",
                                    const="ansatz")
        if command == "figures":
            p.add_argument("--figure", help="figure name or 'all' (the default)")
            p.add_argument("--max-qubits", type=_INT)
            p.add_argument("--n-seeds", type=_INT)
            p.add_argument("--t-grid", type=_parse_numbers, help="comma list of annealing times")
    return parser


@functools.cache
def _known_keys() -> frozenset[str]:
    """The top-level config keys: the command, every key a flag sets and every typed field."""
    parser = build_parser()
    paths = {path for command in COMMANDS for path in vars(parser.parse_args([command]))}
    flag_keys = {path.partition(".")[0] for path in paths} - {"config"}
    return frozenset(flag_keys | {section or key for section, key, *_rule in _FIELD_RULES})


def _merge_args(args: argparse.Namespace) -> dict:
    """The config file's fields, with every flag that was given set at its path.

    Flags merge in the parser's order.  A section that is not an object is
    left as it is, for ``validate_config`` to report.
    """
    raw = _load_json_object(args.config) if args.config else {}
    raw["command"] = args.command
    for path, value in vars(args).items():
        if value is None or path in ("command", "config"):
            continue
        section, _, key = path.rpartition(".")
        if not section:
            raw[key] = value
        elif isinstance(raw.setdefault(section, {}), dict):
            raw[section] = {**raw[section], key: value}
    return raw


def main(argv=None) -> int:
    parser = build_parser()
    source = "<config>"
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse printed help (0) or a usage error (2, not infeasible)
            return EXIT_OK if exc.code == 0 else EXIT_CONFIG
        source = args.config or source
        cfg = validate_config(_merge_args(args), source=source)
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SettingError as exc:  # a setting the problem cannot run with, found while solving
        print(f"config error: {source}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
