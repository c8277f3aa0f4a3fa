import json

import pytest

from ncqm.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EC_FLAGS = ["--mechanism", "ec", "--eta0", "0.1", "--theta0", "0.1",
            "--alpha", "1", "--beta", "1", "--e-ref", "10",
            "--spring-k", "1"]


class TestSpectrumCommand:
    def test_ec_table(self, capsys):
        code, out, _ = run_cli(["spectrum", *EC_FLAGS,
                                "--n", "0..4", "--mphi", "0..3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mechanism,n,m_phi,n_alpha,n_beta,energy,method," \
                           "residual"
        assert len(lines) == 1 + 20
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] == "ec"
            assert abs(float(parts[7])) <= 1e-12

    def test_sqf_requires_eps(self, capsys):
        code, _, err = run_cli(["spectrum", "--mechanism", "sqf",
                                "--eta0", "1"], capsys)
        assert code == 2
        assert "eps" in err

    def test_sqf_table(self, capsys):
        code, out, _ = run_cli(["spectrum", "--mechanism", "sqf",
                                "--eta0", "1", "--theta0", "1",
                                "--alpha", "2", "--beta", "2",
                                "--e-ref", "1", "--eps", "1.0",
                                "--n-alpha", "0..1", "--n-beta", "0..1"],
                               capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        ground = float(rows[0].split(",")[5])
        assert ground == pytest.approx(0.8535533905932737, rel=1e-12)

    def test_eo_rejected(self, capsys):
        code, _, err = run_cli(["spectrum", "--mechanism", "eo_i",
                                "--eta0", "1"], capsys)
        assert code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "mechanism": "ec", "eta0": 0.0, "theta0": 0.0, "alpha": 1.0,
            "beta": 1.0, "e_ref": 10.0, "spring_k": 1.0}))
        code, out, _ = run_cli(["spectrum", "--config", str(cfg),
                                "--n", "1..1", "--mphi", "0..0"], capsys)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[5]) == 3.0
        # flag overrides the config field
        code, out, _ = run_cli(["spectrum", "--config", str(cfg),
                                "--eta0", "0.1", "--theta0", "0.1",
                                "--n", "1..1", "--mphi", "0..0"], capsys)
        energy = float(out.strip().splitlines()[1].split(",")[5])
        assert energy != 3.0

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mechanism": "ec", "spring_k": 1.0}))
        monkeypatch.setenv("NCQM_CONFIG", str(cfg))
        code, out, _ = run_cli(["spectrum", "--n", "0..0", "--mphi", "0..0"],
                               capsys)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[5]) == 1.0

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2
        assert "error" in err

    def test_unmet_tol_exit_2(self, capsys):
        # tol bounds the refined residual; a bound below the float floor
        # is reported, not silently exceeded
        code, _, err = run_cli(["spectrum", *EC_FLAGS, "--n", "0..4",
                                "--mphi", "0..3", "--tol", "1e-30"], capsys)
        assert code == 2
        assert "residual" in err

    def test_deterministic_output_files(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for target in (out_a, out_b):
            code, _, _ = run_cli(["spectrum", *EC_FLAGS, "--n", "0..2",
                                  "--mphi", "0..2", "--out", str(target)],
                                 capsys)
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestWavefunctionCommand:
    def test_samples(self, capsys):
        code, out, _ = run_cli(["wavefunction", *EC_FLAGS, "--n", "0",
                                "--mphi", "0", "--points", "50"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,xi,R_value,density"
        assert len(lines) == 51
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == pytest.approx(first[2] ** 2, rel=1e-12)


class TestCommutatorsCommand:
    def test_residual_report(self, capsys):
        code, out, _ = run_cli(["commutators", "--theta", "0.1",
                                "--eta", "0.05", "--n-trunc", "20"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 6
        assert all(d["max_residual"] < 1e-10 for d in doc)


class TestFractionalCommand:
    def test_half_derivative_table(self, capsys):
        code, out, _ = run_cli(["fractional", "--op", "half_derivative_x",
                                "--x", "0.5,1.0"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            assert float(parts[3]) == pytest.approx(float(parts[4]),
                                                    rel=1e-12)


class TestRingCommand:
    def test_sweep(self, capsys):
        code, out, _ = run_cli(["ring", "--phi-steps", "5", "--l", "0..1"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi_over_phi0,l,energy,current"
        assert len(lines) == 1 + 5 * 2


class TestVerifyCommand:
    def test_passes_and_reports_divergences(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(["verify", "--out", str(out_file)], capsys)
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["all_passed"] is True
        assert "bogoliubov_single_vs_two_frequency" in \
            doc["expected_divergences"]
        assert "caputo_oscillatory_mismatch" in doc["expected_divergences"]
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["bogoliubov_single_vs_two_frequency"] == \
            "expected_divergence"
