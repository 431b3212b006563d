import json
import math

import pytest

import paulisdp.ansatz
from paulisdp import cli, models, solvers
from paulisdp.solvers import GroundStateSolver, RankOneReducer, XorGameSolver, energy_sweep
from paulisdp.states import PlusState


def count_measurements(monkeypatch):
    """Record every overlap measurement a solver makes."""
    calls = []
    real = solvers.build_overlaps
    monkeypatch.setattr(solvers, "build_overlaps", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def read_csv(path):
    meta = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return meta, header, rows


class TestConfigValidation:
    def test_minimal_nse_config_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "nse", "model": {"kind": "ising", "n": 3}}))
        cfg = cli.parse_config(str(path))
        assert cfg.mode == "exact"
        assert cfg.solver.get("tol_feas") is None  # solver defaults applied downstream

    def test_collects_all_violations(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "command": "bogus",
                    "model": {"kind": "nope"},
                    "shots": -3,
                    "surprise": 1,
                }
            )
        )
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(str(path))
        messages = "\n".join(err.value.errors)
        assert "command" in messages
        assert "model.kind" in messages
        assert "shots" in messages
        assert "surprise" in messages
        assert len(err.value.errors) >= 4

    def test_negative_shots_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "nse", "shots": 0}))
        with pytest.raises(cli.ConfigError, match="shots"):
            cli.parse_config(str(path))

    def test_m_exceeding_strings_cites_limit(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = cli.main(
            [
                "nse", "--model", "ising", "--n", "3", "--seed-state", "plus",
                "--krylov-order", "1", "--m-sweep", "1,500", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_CONFIG
        assert "m must be in 1..10, got 500" in capsys.readouterr().err
        # X strings: cycle:5 sits on 3 qubits, so 8 strings
        code = cli.main(["lovasz", "--graph", "cycle:5", "--ansatz", "--m-sweep", "2,16",
                         "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "m must be in 1..8, got 16" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{ nope }")
        with pytest.raises(cli.ConfigError, match="invalid JSON"):
            cli.parse_config(str(path))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ('{"command": "nse",\n "model": {"kind": "ising" "n": 3}}', 2, "invalid JSON"),
            ("[1, 2]", 1, "top level must be an object"),
        ],
    )
    def test_bad_config_file_exits_with_file_and_line(self, tmp_path, capsys, text, line, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(str(path))
        for argv in (["nse", "--config", str(path)], ["xor", "--game", str(path)]):
            assert cli.main([*argv, "--out", str(tmp_path / "o.csv")]) == cli.EXIT_CONFIG
            assert f"{path}:{line}: {message}" in capsys.readouterr().err

    def test_eig_sweep_point_reports_certified_dual_residual(self):
        h = models.ising_hamiltonian(3)
        [(m, value, status, dual)] = energy_sweep(h, PlusState(), 1, [4], method="eig")
        assert (m, status) == (4, "optimal")
        assert math.isfinite(value)
        assert dual <= 1e-7

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"state": {"kind": "annealing", "layers": "abc"}},
             "state.layers must be an integer >= 1, got 'abc'"),
            ({"state": {"kind": "plus", "anneal_time": "fast"}},
             "state.anneal_time must be a positive number"),
            ({"state": {"kind": "random", "circuit_seed": 1.5}},
             "state.circuit_seed must be an integer"),
            ({"ansatz": []}, "ansatz must be an object"),
            ({"ansatz": {"krylov_order": "2"}}, "ansatz.krylov_order must be an integer >= 0"),
            ({"state": [1, 2]}, "state must be an object"),
            ({"solver": "tight"}, "solver must be an object"),
            ({"solver": {"tol_feas": "tight"}}, "solver.tol_feas must be a positive number"),
            ({"solver": {"max_iter": 0}}, "solver.max_iter must be a positive integer"),
            ({"sample_seed": "s"}, "sample_seed must be an integer"),
            ({"jobs": 2}, "unknown key 'jobs'"),
            ({"model": {"kind": ["ising"]}}, "model.kind must be one of"),
            ({"model": {"kind": "ising", "n": 3, "g": "x"}}, "model.g must be a number, got 'x'"),
            ({"model": {"kind": "ising", "n": 3, "h": None}}, "model.h must be a number"),
            ({"model": {"kind": "heisenberg", "n": 3, "periodic": 1}},
             "model.periodic must be true or false, got 1"),
            ({"model": {"kind": "random_pauli", "n": 3, "terms": 2.5}},
             "model.terms must be a positive integer"),
            ({"model": {"kind": "random_pauli", "n": 3, "terms": 4, "seed": "s"}},
             "model.seed must be an integer"),
            ({"model": {"kind": "file", "path": 3}}, "model.path must be a file path, got 3"),
            ({"state": {"kind": "random", "layer": 2}}, "unknown state option 'layer'"),
        ],
    )
    def test_wrongly_typed_field_exits_with_message(self, tmp_path, capsys, fields, message):
        path = tmp_path / "cfg.json"
        config = {"command": "nse", "model": {"kind": "ising", "n": 3}, **fields}
        path.write_text(json.dumps(config))
        with pytest.raises(cli.ConfigError, match=message):
            cli.parse_config(str(path))
        # flags that merge into each section without touching the bad field
        argv = ["nse", "--config", str(path), "--seed-state", "annealing", "--n-states", "4",
                "--tol-gap", "1e-8"]
        assert cli.main([*argv, "--out", str(tmp_path / "o.csv")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {path}: {message}" in err
        assert "Traceback" not in err

    def test_type_errors_reported_together(self):
        raw = {
            "command": "nse",
            "state": {"kind": "annealing", "layers": "abc", "anneal_time": -1},
            "ansatz": [],
            "solver": {"rank_tol": "x"},
            "sample_seed": None,
        }
        with pytest.raises(cli.ConfigError) as err:
            cli.validate_config(raw)
        assert len(err.value.errors) == 5

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["nse", "--m-sweep", "a:b"], {},
             "ansatz.m_sweep must be a non-empty list of positive integers, got 'a:b'"),
            (["nse", "--m-sweep", "1:9:0"], {},
             "ansatz.m_sweep must be a non-empty list of positive integers, got '1:9:0'"),
            (["discriminate"], {"angle": "0.3"}, "angle must be a number, got '0.3'"),
            (["discriminate"], {"n_strings": "12"},
             "n_strings must be a positive integer, got '12'"),
            (["figures"], {"max_qubits": "8"}, "max_qubits must be an integer >= 2, got '8'"),
            (["discriminate", "--n", "1"], {},
             "n_strings=12 exceeds the 4 distinct Pauli strings on n_qubits=1"),
            (["discriminate", "--n", "2", "--n-strings", "20"], {},
             "n_strings=20 exceeds the 16 distinct Pauli strings on n_qubits=2"),
            (["lovasz", "--graph", "cycle:x"], {}, "graph.n must be an integer >= 2, got 'x'"),
            (["lovasz"], {"graph": {"kind": "cycle", "n": "5"}},
             "graph.n must be an integer >= 2, got '5'"),
            (["lovasz"], {"graph": {"kind": ["cycle"]}}, "graph.kind must be one of"),
            (["lovasz", "--graph", "cycle:40", "--direct"], {},
             "graph has 40 vertices, over the 32-vertex cap of a direct theta solve"),
            (["eigmax", "--model", "random_pauli", "--n", "4"], {},
             "model.terms is required for kind 'random_pauli'"),
            (["eigmax", "--model", "random_pauli", "--n", "2", "--terms", "20"], {},
             "model.terms=20 exceeds the 16 distinct Pauli strings on model.n=2"),
            (["xor"], {"game": {"pi": [[1.0]]}}, "game needs 'pi' and 'f' tables"),
            (["figures"], {"figure": "fig99"}, "unknown figure(s) ['fig99']"),
            (["symmetry"], {"symmetry": "spin"},
             "symmetry must be one of ('parity', 'magnetization'), got 'spin'"),
            (["discriminate", "--angle", "nan"], {}, "angle must be a number, got nan"),
            (["symmetry", "--sectors", "nan"], {},
             "sector_values must be a non-empty list of numbers, got [nan]"),
            (["nse", "--seed-state", "annealing", "--anneal-time", "inf"], {},
             "state.anneal_time must be a positive number, got inf"),
            (["nse", "--model", "ising", "--n", "4", "--field", "nan"], {},
             "model.h must be a number, got nan"),
        ],
    )
    def test_malformed_command_input_exits_with_message(
        self, tmp_path, capsys, argv, config, message
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path), "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            (["nse", "--model-file", "{dir}/h.txt"], {"h.txt": "1.0 0.0 ZZQ\n"},
             "{dir}/h.txt: line 1: invalid Pauli label 'ZZQ'"),
            (["xor", "--game", "{dir}/game.json"],
             {"game.json": '{"pi": [[0.5, 0.25], [0.25, 0.25]], "f": [[0, 0], [0, 1]]}'},
             "{dir}/game.json: game: pi must be a probability distribution"),
            (["lovasz", "--graph", "{dir}/g.edges"], {"g.edges": "3\n0 1\n0 5\n"},
             "{dir}/g.edges: edge (0, 5) out of range"),
            (["nse", "--model", "ising", "--n", "20", "--seed-state", "random"], {},
             "circuit state preparation on 20 qubits needs the dense backend (cap 14 qubits)"),
            (["nse", "--model", "heisenberg", "--n", "4", "--seed-state", "annealing"], {},
             "the annealing seed state cannot be built: term"),
            (["excited", "--model", "ising", "--n", "3", "--n-excited", "50"], {},
             "n_excited=50 exceeds ansatz size minus one"),
            (["excited", "--model", "ising", "--n", "3", "--n-states", "500"], {},
             "m must be in 1.."),
            (["symmetry", "--model", "ising", "--n", "3", "--symmetry", "magnetization"], {},
             "symmetry operator does not commute with the Hamiltonian"),
            (["lovasz", "--ansatz", "--seed-state", "plus"], {},
             "ansatz mode needs a real-valued seed"),
            (["nse", "--model-file", "{dir}/h.txt"], {"h.txt": "nan 0 XZ\n"},
             "{dir}/h.txt: line 1: coefficient nan+0j of XZ is not finite"),
        ],
    )
    def test_rejected_input_exits_with_message(self, tmp_path, capsys, argv, files, message):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        assert cli.main([*argv, "--out", str(tmp_path / "o.csv")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        # errors in a file name the file; the others come from the run config
        source = "" if files else "<config>: "
        assert f"config error: {source}{message.replace('{dir}', str(tmp_path))}" in err
        assert "Traceback" not in err

    def test_solver_settings_by_field_name(self):
        cfg = cli.validate_config({
            "command": "xor", "mode": "shots", "shots": 50, "solver": {"max_iter": 9},
            "state": {"kind": "random", "layers": 2}, "ansatz": {"krylov_order": 1},
        })
        # the exact/shots mode never reaches a graph or game solver
        assert cli._solver_settings(cfg, XorGameSolver) == {
            **XorGameSolver().get_params(), "seed_state": "random", "layers": 2, "max_iter": 9,
        }
        settings = cli._solver_settings(cfg, GroundStateSolver, seed_state="zero")
        assert settings == {
            **GroundStateSolver().get_params(), "seed_state": "random", "layers": 2,
            "krylov_order": 1, "mode": "shots", "shots": 50, "max_iter": 9,
        }

    @pytest.mark.parametrize("value", [2**70, 2**63, -(2**63) - 1, True, 1.5])
    def test_sample_seed_outside_eight_signed_bytes(self, tmp_path, capsys, value):
        # the flag's 2**70 used to end in an OverflowError traceback; true drew seed 1
        expected = f"sample_seed must be an integer in [-2**63, 2**63), got {value!r}"
        if isinstance(value, int) and not isinstance(value, bool):
            argv = ["nse", "--mode", "shots", "--sample-seed", str(value)]
            assert cli.main(argv) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [f"config error: <config>: {expected}"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "nse", "mode": "shots", "sample_seed": value}))
        assert cli.main(["nse", "--config", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"config error: {path}: {expected}"]

    def test_bad_flag_values_reported_together(self, capsys):
        assert cli.main(["nse", "--model", "isin", "--n", "abc", "--shots", "x"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: <config>: model.n must be an integer >= 2, got 'abc'",
            "config error: <config>: shots must be a positive integer, got 'x'",
            "config error: <config>: model.kind must be one of "
            "['file', 'heisenberg', 'ising', 'random_pauli'], got 'isin'",
        ]

    def test_bad_lists_reported_with_every_other_violation(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"shots": "x", "state": {"kind": "random", "layers": 0}}))
        argv = ["discriminate", "--config", str(path), "--m-sweep", "1:9:0", "--angles", "0.1,x"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 4
        for name in ("shots", "state.layers", "ansatz.m_sweep", "angles"):
            assert f"{name} must be" in err


# Every flag with the text given after it (None for a switch) and the config
# fields it sets, as dotted paths into the merged config.
_COMMON_FLAGS = {
    "--config": ("{config}", {"shots": 7}),
    "--out": ("o.csv", {"output": "o.csv"}),
    "--seed-state": ("random", {"state.kind": "random"}),
    "--layers": ("2", {"state.layers": 2}),
    "--anneal-time": ("0.5", {"state.anneal_time": 0.5}),
    "--circuit-seed": ("3", {"state.circuit_seed": 3}),
    "--krylov-order": ("1", {"ansatz.krylov_order": 1}),
    "--n-states": ("5", {"ansatz.n_states": 5}),
    "--m-sweep": ("1:5:2", {"ansatz.m_sweep": [1, 3, 5]}),
    "--mode": ("shots", {"mode": "shots"}),
    "--shots": ("100", {"shots": 100}),
    "--sample-seed": ("4", {"sample_seed": 4}),
    "--tol-feas": ("1e-07", {"solver.tol_feas": 1e-7}),
    "--tol-gap": ("1e-06", {"solver.tol_gap": 1e-6}),
}
# the model flags, which only the commands that read a model take
_MODEL_FLAGS = {
    "--model": ("ising", {"model.kind": "ising"}),
    "--n": ("3", {"model.n": 3}),
    "--g": ("0.5", {"model.g": 0.5}),
    "--field": ("0.25", {"model.h": 0.25}),
    "--terms": ("4", {"model.terms": 4}),
    "--model-seed": ("2", {"model.seed": 2}),
    "--model-file": ("h.txt", {"model.kind": "file", "model.path": "h.txt"}),
}
_SOLVE_MODE_FLAGS = {
    "--direct": (None, {"solve_mode": "direct"}),
    "--ansatz": (None, {"solve_mode": "ansatz"}),
}
_COMMAND_FLAGS = {
    "nse": _MODEL_FLAGS,
    "excited": {**_MODEL_FLAGS, "--n-excited": ("2", {"n_excited": 2})},
    "symmetry": {
        **_MODEL_FLAGS,
        "--symmetry": ("parity", {"symmetry": "parity"}),
        "--sector": ("1", {"sector_value": 1.0}),
        "--sectors": ("0,2", {"sector_values": [0.0, 2.0]}),
    },
    "eigmax": _MODEL_FLAGS,
    "rank1": _MODEL_FLAGS,
    "discriminate": {
        "--n": ("4", {"n_qubits": 4}),
        "--angle": ("0.3", {"angle": 0.3}),
        "--angles": ("0.1,0.2", {"angles": [0.1, 0.2]}),
        "--error-budget": ("0.1", {"error_budget": 0.1}),
        "--n-strings": ("8", {"n_strings": 8}),
        "--instance-seed": ("2", {"instance_seed": 2}),
    },
    "lovasz": {"--graph": ("cycle:5", {"graph": {"kind": "cycle", "n": 5}}), **_SOLVE_MODE_FLAGS},
    "xor": {"--game": ("chsh", {"game": {"name": "chsh"}}), **_SOLVE_MODE_FLAGS},
    "figures": {
        "--figure": ("fig3", {"figure": "fig3"}),
        "--max-qubits": ("6", {"max_qubits": 6}),
        "--n-seeds": ("2", {"n_seeds": 2}),
        "--t-grid": ("0.1,0.2", {"t_grid": [0.1, 0.2]}),
    },
}


def _flat_config(raw):
    """The merged config as {dotted path: value}, one level into each section."""
    flat = {}
    for key, value in raw.items():
        if key in ("model", "state", "ansatz", "solver"):
            flat.update({f"{key}.{k}": v for k, v in value.items()})
        else:
            flat[key] = value
    return flat


def _subparser(command):
    [action] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return action.choices[command]


class TestFlagInventory:
    def test_option_strings_of_every_command(self):
        total = 0
        for command in cli.COMMANDS:
            options = {s for a in _subparser(command)._actions for s in a.option_strings}
            options -= {"-h", "--help"}
            assert options == {*_COMMON_FLAGS, *_COMMAND_FLAGS.get(command, {})}, command
            total += len(options)
        assert total == 181

    def test_only_commands_that_read_a_model_take_the_model_flags(self, capsys):
        for command in cli.COMMANDS:
            options = {s for a in _subparser(command)._actions for s in a.option_strings}
            assert (set(_MODEL_FLAGS) <= options) is (command in cli.MODEL_COMMANDS), command
        # lovasz has --n-states: the flag must not pass as an abbreviation of it
        assert cli.main(["lovasz", "--graph", "chsh", "--n", "5"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unrecognized arguments: --n 5" in err and "model.kind" not in err
        for command in cli.COMMANDS:
            helps = [a.help for a in _subparser(command)._actions if "--n" in a.option_strings]
            if command in cli.MODEL_COMMANDS:
                assert helps == ["qubit count of a built-in model"]
            elif command == "discriminate":
                assert helps == ["qubit count of the discrimination instance"]
            else:
                assert helps == []

    def test_model_file_replaces_the_model_flags(self):
        args = cli.build_parser().parse_args(
            ["nse", "--model", "ising", "--n", "3", "--model-file", "h.txt", "--g", "0.5"]
        )
        assert cli._merge_args(args)["model"] == {"kind": "file", "path": "h.txt"}

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_each_flag_sets_its_config_path(self, tmp_path, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"shots": 7}))
        parser = cli.build_parser()
        base = _flat_config(cli._merge_args(parser.parse_args([command])))
        for flag, (text, sets) in {**_COMMON_FLAGS, **_COMMAND_FLAGS.get(command, {})}.items():
            argv = [command, flag] + ([] if text is None else [text.format(config=config)])
            flat = _flat_config(cli._merge_args(parser.parse_args(argv)))
            changed = {k: v for k, v in flat.items() if base.get(k, flat) != v}
            assert changed == sets, flag


class TestCommands:
    def test_nse_csv_contract(self, tmp_path):
        out = tmp_path / "nse.csv"
        code = cli.main(
            [
                "nse", "--model", "ising", "--n", "4", "--seed-state", "plus",
                "--krylov-order", "2", "--m-sweep", "1:13:4", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        meta, header, rows = read_csv(out)
        assert header == ["m", "energy", "delta_energy", "dual_residual", "status"]
        assert any("config_hash" in ln for ln in meta)
        assert any("seeds" in ln for ln in meta)
        assert len(rows) == 4
        assert all(row[-1] == "optimal" for row in rows)
        energies = [float(r[1]) for r in rows]
        assert energies == sorted(energies, reverse=True)

    def test_byte_identical_reruns_modulo_timestamp(self, tmp_path):
        args = [
            "nse", "--model", "ising", "--n", "3", "--seed-state", "random",
            "--circuit-seed", "7", "--krylov-order", "1", "--m-sweep", "1,5,9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if "timestamp" not in ln]
        assert strip(out1) == strip(out2)

    def test_byte_identical_shots_reruns_modulo_timestamp(self, tmp_path):
        args = [
            "nse", "--model", "ising", "--n", "3", "--seed-state", "random",
            "--circuit-seed", "7", "--krylov-order", "1", "--m-sweep", "1,5,9",
            "--mode", "shots", "--shots", "1000",
        ]
        out1, out2, other = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert cli.main(args + ["--sample-seed", "5", "--out", str(out1)]) == 0
        assert cli.main(args + ["--sample-seed", "5", "--out", str(out2)]) == 0
        assert cli.main(args + ["--sample-seed", "6", "--out", str(other)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if "timestamp" not in ln]
        assert strip(out1) == strip(out2)
        assert read_csv(out1)[2] != read_csv(other)[2]

    def test_xor_chsh_value(self, tmp_path):
        out = tmp_path / "xor.csv"
        assert cli.main(["xor", "--game", "chsh", "--direct", "--out", str(out)]) == 0
        _meta, header, rows = read_csv(out)
        value = float(rows[0][header.index("value")])
        assert abs(value - 0.8535534) < 1e-6
        assert float(rows[0][header.index("classical_value")]) == 0.75

    def test_lovasz_direct_from_edge_file(self, tmp_path):
        edges = tmp_path / "c5.edges"
        edges.write_text("5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        out = tmp_path / "theta.csv"
        assert cli.main(["lovasz", "--graph", str(edges), "--direct", "--out", str(out)]) == 0
        _meta, header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("theta")]) - 2.2360680) < 1e-6

    def test_lovasz_ansatz_past_the_direct_cap(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert cli.main(["lovasz", "--graph", "cycle:100", "--ansatz", "--out", str(out)]) == 0
        _meta, header, rows = read_csv(out)
        assert abs(float(rows[0][header.index("theta")]) - 50.0) < 1e-6

    def test_lovasz_direct_edge_file_over_cap(self, tmp_path):
        edges = tmp_path / "c40.edges"
        edges.write_text(models.cycle_graph(40).to_text())
        cfg = cli.validate_config(
            {"command": "lovasz", "graph": {"kind": "file", "path": str(edges)}}
        )
        with pytest.raises(cli.ConfigError, match="over the 32-vertex cap"):
            cli.run_lovasz(cfg)

    def test_usage_error_and_infeasible_result_exit_differently(self, tmp_path, capsys):
        assert cli.main(["lovasz", "--graph", "chsh", "--n", "5"]) == cli.EXIT_CONFIG
        assert "error: unrecognized arguments: --n 5" in capsys.readouterr().err
        argv = ["lovasz", "--graph", "cycle:5", "--ansatz", "--seed-state", "random",
                "--circuit-seed", "0", "--n-states", "6", "--out", str(tmp_path / "l.csv")]
        assert cli.main(argv) == cli.EXIT_INFEASIBLE
        assert cli.main(["lovasz", "--help"]) == cli.EXIT_OK
        assert "usage: paulisdp lovasz" in capsys.readouterr().out
        assert cli.main(["nope"]) == cli.EXIT_CONFIG

    def test_symmetry_infeasible_exit_code(self, tmp_path):
        out = tmp_path / "sym.csv"
        code = cli.main(
            [
                "symmetry", "--model", "heisenberg", "--n", "4",
                "--symmetry", "magnetization", "--sector", "4",
                "--seed-state", "random", "--krylov-order", "0",
                "--out", str(out),
            ]
        )
        assert code == cli.EXIT_INFEASIBLE
        _meta, header, rows = read_csv(out)
        assert rows[0][header.index("status")] == "infeasible"

    def test_symmetry_sector_values(self, tmp_path, monkeypatch):
        calls = count_measurements(monkeypatch)
        out = tmp_path / "sym.csv"
        code = cli.main(
            [
                "symmetry", "--model", "heisenberg", "--n", "4",
                "--symmetry", "magnetization", "--sectors", "0,2,4",
                "--seed-state", "random", "--circuit-seed", "5",
                "--krylov-order", "3", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        assert len(calls) == 1  # every sector is solved on one measurement
        _meta, header, rows = read_csv(out)
        assert [r[header.index("sector")] for r in rows] == ["0", "2", "4"]
        for row in rows:
            energy = float(row[header.index("energy")])
            reference = float(row[header.index("sector_minimum")])
            assert abs(energy - reference) < 1e-5

    def test_discriminate_rows(self, tmp_path):
        out = tmp_path / "disc.csv"
        code = cli.main(
            [
                "discriminate", "--n", "4", "--n-strings", "8",
                "--angles", "0.7853981633974483,1.5707963267948966",
                "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        for row in rows:
            got = float(row[header.index("q_correct")])
            want = float(row[header.index("q_correct_pure_optimum")])
            assert abs(got - want) < 1e-3

    def test_discriminate_validates_the_instance_it_runs(self, tmp_path, capsys, monkeypatch):
        built = []
        library = solvers.two_state_discrimination_instance

        def instance(angle, n_qubits=2, n_strings=17, layers=1, seed=3, error_budget=0.0):
            built.append((n_qubits, n_strings, layers, seed))
            return library(angle, n_qubits, n_strings, layers, seed, error_budget)

        monkeypatch.setattr(solvers, "two_state_discrimination_instance", instance)
        out = str(tmp_path / "disc.csv")
        assert cli.main(["discriminate", "--out", out]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "n_strings=17 exceeds the 16 distinct Pauli strings on n_qubits=2" in err
        assert built == []
        assert cli.main(["discriminate", "--n-strings", "5", "--out", out]) == cli.EXIT_OK
        assert built == [(2, 5, 1, 3)]

    def test_excited_rows(self, tmp_path):
        out = tmp_path / "ex.csv"
        code = cli.main(
            [
                "excited", "--model", "ising", "--n", "3", "--n-excited", "2",
                "--seed-state", "random", "--circuit-seed", "3",
                "--krylov-order", "2", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        assert len(rows) == 3
        residual = float(rows[0][header.index("max_ortho_residual")])
        assert residual <= 1e-7

    def test_eigmax_command(self, tmp_path):
        out = tmp_path / "eig.csv"
        code = cli.main(
            [
                "eigmax", "--model", "random_pauli", "--n", "5", "--terms", "6",
                "--model-seed", "2", "--seed-state", "zero", "--krylov-order", "5",
                "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        assert float(rows[-1][header.index("delta_eigenvalue")]) < 1e-6

    @pytest.mark.parametrize(
        "argv, model, sweep",
        [
            (["nse", "--model", "ising", "--n", "4", "--seed-state", "random",
              "--circuit-seed", "3", "--krylov-order", "2", "--m-sweep", "1:25:6",
              "--tol-gap", "1e-9"],
             {"kind": "ising", "n": 4},
             dict(seed_state="random", circuit_seed=3, krylov_order=2,
                  m_values=range(1, 26, 6), tol_gap=1e-9)),
            (["nse", "--model", "ising", "--n", "4", "--seed-state", "annealing",
              "--layers", "2", "--krylov-order", "1", "--mode", "shots", "--shots", "2000",
              "--sample-seed", "4"],
             {"kind": "ising", "n": 4},
             dict(seed_state="annealing", layers=2, krylov_order=1, m_values=[13],
                  mode="shots", shots=2000, sample_seed=4)),
            (["eigmax", "--model", "random_pauli", "--n", "5", "--terms", "6",
              "--model-seed", "2", "--seed-state", "zero", "--krylov-order", "3",
              "--n-states", "9"],
             {"kind": "random_pauli", "n": 5, "terms": 6, "seed": 2},
             dict(seed_state="zero", krylov_order=3, m_values=[9], sense="max")),
        ],
    )
    def test_eig_rows_are_energy_sweep_rows(self, tmp_path, argv, model, sweep):
        out = tmp_path / "o.csv"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        got = [(r[0], r[1], r[header.index("status")], r[header.index("dual_residual")])
               for r in rows]
        want = energy_sweep(models.build_model(model), **sweep)
        assert got == [tuple(cli._format_cell(v) for v in row) for row in want]

    def test_rank1_command(self, tmp_path):
        out = tmp_path / "r1.csv"
        code = cli.main(
            [
                "rank1", "--model", "ising", "--n", "3", "--seed-state", "plus",
                "--krylov-order", "2", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        assert rows[0][header.index("solvable")] == "True"

        # solver.rank_tol from a config reaches the reducer
        argv = ["rank1", "--model", "ising", "--n", "4", "--seed-state", "random",
                "--krylov-order", "2"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"solver": {"rank_tol": 0.5}}))
        values = []
        for extra in ([], ["--config", str(path)]):
            assert cli.main([*argv, *extra, "--out", str(out)]) == cli.EXIT_OK
            _meta, header, rows = read_csv(out)
            values.append(rows[0][header.index("value")])
        h = models.build_model({"kind": "ising", "n": 4})
        reducer = RankOneReducer(seed_state="random", krylov_order=2, rank_tol=0.5).fit(h)
        assert values[1] == cli._format_cell(reducer.value_)
        assert values[1] != values[0]

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAULISDP_OUTDIR", str(tmp_path))
        code = cli.main(
            ["xor", "--game", "chsh", "--direct", "--out", "sub/xor.csv"]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "sub" / "xor.csv").exists()


class TestFigures:
    @pytest.mark.parametrize("figure", ["fig6a", "fig6b"])
    def test_fig6_runs(self, tmp_path, figure):
        code = cli.main(["figures", "--figure", figure, "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(tmp_path / f"{figure}.csv")
        m = [int(r[header.index("m")]) for r in rows]
        finals = [r for r, size in zip(rows, m) if size == max(m)]
        assert all(float(r[header.index("error")]) < 1e-4 for r in finals)
        assert {r[header.index("status")] for r in rows} <= {"optimal", "infeasible"}

    def test_fig3_measures_once_per_model(self, tmp_path, monkeypatch):
        calls = count_measurements(monkeypatch)
        code = cli.main(["figures", "--figure", "fig3", "--max-qubits", "4", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert len(calls) == 2
        _meta, header, rows = read_csv(tmp_path / "fig3.csv")
        assert {r[header.index("status")] for r in rows} <= {"optimal", "infeasible"}
        last = {}
        for r in rows:
            last[r[header.index("model")], r[header.index("sector")]] = r
            if r[header.index("status")] == "optimal":
                energy, reference = (float(r[header.index(k)]) for k in ("energy", "sector_minimum"))
                assert energy >= reference - 1e-8
        for r in last.values():  # the full Krylov size reaches every sector minimum
            energy, reference = (float(r[header.index(k)]) for k in ("energy", "sector_minimum"))
            assert abs(energy - reference) < 1e-6

    @pytest.mark.parametrize(
        "argv",
        [
            ["nse", "--model", "ising", "--n", "4", "--seed-state", "plus", "--krylov-order", "2"],
            ["eigmax", "--model", "random_pauli", "--n", "60", "--terms", "6", "--model-seed", "1",
             "--seed-state", "zero", "--krylov-order", "4"],
            ["figures", "--figure", "fig2a", "--max-qubits", "4"],
            ["figures", "--figure", "fig2b", "--max-qubits", "4", "--t-grid", "0.2,0.5"],
            ["figures", "--figure", "fig4", "--max-qubits", "4", "--n-seeds", "2"],
        ],
    )
    def test_krylov_strings_expanded_once_per_fit(self, tmp_path, monkeypatch, argv):
        """Sizes come from the measured ansatz, not from a second expansion."""
        fits = count_measurements(monkeypatch)
        expansions = []
        real = paulisdp.ansatz.krylov_strings

        def counted(*args, **kwargs):
            expansions.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(paulisdp.ansatz, "krylov_strings", counted)
        if hasattr(cli, "krylov_strings"):
            monkeypatch.setattr(cli, "krylov_strings", counted)
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
        assert len(expansions) == len(fits) > 0

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        code = cli.main(["figures", "--figure", "fig99", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
