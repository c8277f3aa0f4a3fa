import argparse
import json

import pytest

from ncqm.cli import _load_params, build_parser, main
from ncqm.params import PARAM_KEYS, params_to_dict


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

    def test_second_root_note(self, capsys):
        # the spurious high-energy branch is reported on stderr only
        code, out, err = run_cli(["spectrum", *EC_FLAGS,
                                  "--n", "0..4", "--mphi", "0..3"], capsys)
        assert code == 0
        assert err == ("note: 20 of 20 levels saw a second sign change; "
                       "the smallest root is reported\n")
        assert "note" not in out
        code, _, err = run_cli(["spectrum", *EC_FLAGS, "--n", "0..1",
                                "--mphi", "0..1", "--bracket", "0.1", "20"],
                               capsys)
        assert code == 0
        assert err == ""

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


@pytest.mark.parametrize("args", [
    ["ring", "--radius", "nan"],
    ["wavefunction", "--r-max", "nan"],
    ["commutators", "--theta", "nan", "--eta", "0.1"],
    ["fractional", "--op", "caputo_exp", "--x", "1.0,inf"],
    ["spectrum", "--n", "3..1"],
])
def test_non_finite_or_empty_input_exit_2(args, capsys):
    # argparse exits on a bad flag value; the range check returns 2
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["ring", "--phi-steps", "0"],
    ["ring", "--phi-steps", "-3"],
    ["ring", "--phi-steps", "0", "--l", "abc"],
    ["ring", "--l", "abc"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--points", "0"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--r-max", "0"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--r-max", "-2"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--n-trunc", "0"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--n-trunc", "121"],
])
def test_non_positive_count_or_bad_level_exit_2(args, capsys):
    # an empty flux sweep or sample grid used to exit 0 with a bare header
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text,reason", [
    ("[]", "JSON object"), ('"x"', "JSON object"), ("0.5", "JSON object"),
    ("null", "JSON object"), ('{"eta0": null}', "eta0 must be a number"),
    ('{"eta0": true}', "eta0 must be a number"),
    ('{"eta0": "0.5"}', "eta0 must be a number"),
    ('{"eta0": [0.1]}', "eta0 must be a number"),
    ('{"spring_k": {"k": 1}}', "spring_k must be a number"),
    ('{"mechanism": "xyz"}', "not a valid Mechanism"),
])
@pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
def test_malformed_config_exit_2(command, text, reason, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    for extra in ([], ["--theta0", "0.1"]):  # a flag does not mask the fault
        code, out, err = run_cli([command, "--config", str(cfg), *extra],
                                 capsys)
        assert code == 2
        assert err.startswith("error: ") and reason in err
        assert out == ""


@pytest.mark.parametrize("command", ["spectrum", "wavefunction"])
def test_one_flag_per_document_key(command, monkeypatch):
    monkeypatch.delenv("NCQM_CONFIG", raising=False)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices[command]._actions
               if a.dest in PARAM_KEYS]
    assert sorted(a.dest for a in actions) == sorted(PARAM_KEYS)
    for a in actions:
        assert a.option_strings == ["--" + a.dest.replace("_", "-")]
    # each flag lands on its own key of the document
    values = {key: 1.0 + i / 16 for i, key in enumerate(PARAM_KEYS)}
    values["mechanism"] = "sqf"
    argv = [command]
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    p = _load_params(build_parser().parse_args(argv))
    assert params_to_dict(p) == values


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


    @pytest.mark.parametrize("theta,eta", [("1e200", "0.1"),
                                           ("1e300", "1e300")])
    def test_overflowing_strengths_exit_2(self, theta, eta, capsys):
        # once exit 0 with "max_residual": NaN, or an overflow warning
        code, out, err = run_cli(["commutators", "--theta", theta,
                                  "--eta", eta], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["spectrum", *EC_FLAGS, "--bracket", "0", "1e308"],
    ["spectrum", *EC_FLAGS, "--bracket", "1e-300", "1e300"],
    ["spectrum", *EC_FLAGS, "--tol", "-1"],
    ["ring", "--eta", "1e308"],
    ["ring", "--eta", "1e200"],
])
def test_overflowing_bracket_tol_or_ring_strength_exit_2(args, capsys):
    # the brackets and --eta 1e200 once exited 1 with an OverflowError
    # traceback, --eta 1e308 exited 0 with nan,inf rows, and --tol -1
    # blamed the residual
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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

    def test_mittag_leffler_cancellation_exit_2(self, capsys):
        # E_1(-30) = e^-30 is summed from terms up to 8e11: no digit is left
        code, out, err = run_cli(["fractional", "--op", "mittag_leffler",
                                  "--order", "1", "--x", "-30"], capsys)
        assert code == 2
        assert "error: mittag_leffler cancellation" in err
        assert out == ""


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
