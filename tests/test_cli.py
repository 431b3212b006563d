import json
import math

import pytest

from paulisdp import cli, models
from paulisdp.ansatz import build_overlaps, krylov_ansatz
from paulisdp.states import PlusState


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

    def test_m_exceeding_strings_cites_limit(self, tmp_path):
        out = tmp_path / "o.csv"
        code = cli.main(
            [
                "nse", "--model", "ising", "--n", "3", "--seed-state", "plus",
                "--krylov-order", "1", "--m-sweep", "1,500", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_CONFIG

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

    def test_eig_sweep_point_reports_no_dual_residual(self):
        h = models.ising_hamiltonian(3)
        overlaps = build_overlaps(krylov_ansatz(h, PlusState(), 1), objective=h)
        m, value, status, dual = cli._solve_point((overlaps, 4, "min", {"method": "eig"}))
        assert (m, status) == (4, "optimal")
        assert math.isfinite(value)
        assert math.isnan(dual)


class TestCommands:
    def test_nse_csv_contract(self, tmp_path):
        out = tmp_path / "nse.csv"
        code = cli.main(
            [
                "nse", "--model", "ising", "--n", "4", "--seed-state", "plus",
                "--krylov-order", "2", "--m-sweep", "1:13:4", "--jobs", "1",
                "--out", str(out),
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
            "--jobs", "1",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        strip = lambda p: [ln for ln in p.read_text().splitlines() if "timestamp" not in ln]
        assert strip(out1) == strip(out2)

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

    def test_symmetry_sector_values(self, tmp_path):
        out = tmp_path / "sym.csv"
        code = cli.main(
            [
                "symmetry", "--model", "heisenberg", "--n", "4",
                "--symmetry", "magnetization", "--sectors", "0,2",
                "--seed-state", "random", "--circuit-seed", "5",
                "--krylov-order", "3", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        assert len(rows) == 2
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
                "--jobs", "1", "--out", str(out),
            ]
        )
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(out)
        assert float(rows[-1][header.index("delta_eigenvalue")]) < 1e-6

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

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAULISDP_OUTDIR", str(tmp_path))
        code = cli.main(
            ["xor", "--game", "chsh", "--direct", "--out", "sub/xor.csv"]
        )
        assert code == cli.EXIT_OK
        assert (tmp_path / "sub" / "xor.csv").exists()


class TestFigures:
    def test_fig6b_runs(self, tmp_path):
        code = cli.main(["figures", "--figure", "fig6b", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        _meta, header, rows = read_csv(tmp_path / "fig6b.csv")
        finals = [r for r in rows if r[header.index("m")] == "4"]
        assert all(float(r[header.index("error")]) < 1e-4 for r in finals)

    def test_unknown_figure_rejected(self, tmp_path, capsys):
        code = cli.main(["figures", "--figure", "fig99", "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
