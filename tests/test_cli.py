import argparse
import csv
import io
import json
import math
from pathlib import Path

import pytest
from conftest import assert_refused, run_cli, strict_json

from ncqm import cli
from ncqm.cli import MAX_ROWS, _check_rows, _load_params, build_parser
from ncqm.params import PARAM_KEYS, params_to_dict
from ncqm.spectra import QuantumNumbers
from ncqm.wavefunctions import ec_radial_solution


EC_FLAGS = ["--mechanism", "ec", "--eta0", "0.1", "--theta0", "0.1",
            "--alpha", "1", "--beta", "1", "--e-ref", "10",
            "--spring-k", "1"]

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_json():
    """The lines inside the README's ```json fences, fences dropped (sed
    -n '/^```json$/,/^```$/{/^```/d;p}')."""
    kept, inside = [], False
    for line in README.read_text().splitlines(keepends=True):
        fence = line.rstrip("\n")
        if inside and fence == "```":
            inside = False
        elif inside:
            kept.append(line)
        elif fence == "```json":
            inside = True
    return "".join(kept)


class TestSpectrumCommand:
    def test_ec_table(self):
        code, out, _ = run_cli(["spectrum", *EC_FLAGS,
                                "--n", "0..4", "--mphi", "0..3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mechanism,n,m_phi,n_alpha,n_beta,energy,method," \
                           "residual"
        assert len(lines) == 1 + 20
        for line in lines[1:]:
            parts = line.split(",")
            assert parts[0] == "ec"
            assert abs(float(parts[7])) <= 1e-12

    def test_readme_config_matches_its_flags(self, tmp_path, monkeypatch):
        # the README's JSON config and its EC example flags are one model:
        # the two spectrum tables agree byte for byte
        monkeypatch.delenv("NCQM_CONFIG", raising=False)
        cfg = tmp_path / "readme.json"
        cfg.write_text(readme_json())
        levels = ["--n", "0..4", "--mphi", "0..3"]
        code, from_config, _ = run_cli(["spectrum", "--config", str(cfg),
                                        *levels])
        assert code == 0
        code, from_flags, _ = run_cli(["spectrum", *EC_FLAGS, *levels])
        assert code == 0
        assert len(from_config.splitlines()) == 1 + 20
        assert from_config == from_flags

    def test_second_root_note(self):
        # the spurious high-energy branch is reported on stderr only
        code, out, err = run_cli(["spectrum", *EC_FLAGS,
                                  "--n", "0..4", "--mphi", "0..3"])
        assert code == 0
        assert err == ("note: 20 of 20 levels saw a second sign change; "
                       "the smallest root is reported\n")
        assert "note" not in out
        code, _, err = run_cli(["spectrum", *EC_FLAGS, "--n", "0..1",
                                "--mphi", "0..1", "--bracket", "0.1", "20"])
        assert code == 0
        assert err == ""

    def test_sqf_requires_eps(self):
        code, out, err = run_cli(["spectrum", "--mechanism", "sqf",
                                  "--eta0", "1"])
        assert_refused(code, out, err)
        assert err == ("error: --eps (fluctuation energy scale) is required "
                       "for the sqf mechanism\n")

    def test_sqf_table(self):
        code, out, _ = run_cli(["spectrum", "--mechanism", "sqf",
                                "--eta0", "1", "--theta0", "1",
                                "--alpha", "2", "--beta", "2",
                                "--e-ref", "1", "--eps", "1.0",
                                "--n-alpha", "0..1", "--n-beta", "0..1"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        ground = float(rows[0].split(",")[5])
        assert ground == pytest.approx(0.8535533905932737, rel=1e-12)

    def test_eo_rejected(self):
        code, out, err = run_cli(["spectrum", "--mechanism", "eo_i",
                                  "--eta0", "1"])
        assert_refused(code, out, err)
        assert err.startswith("error: the energy-operator mechanism has no "
                              "quantized spectrum table")

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "mechanism": "ec", "eta0": 0.0, "theta0": 0.0, "alpha": 1.0,
            "beta": 1.0, "e_ref": 10.0, "spring_k": 1.0}))
        code, out, _ = run_cli(["spectrum", "--config", str(cfg),
                                "--n", "1..1", "--mphi", "0..0"])
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[5]) == 3.0
        # flag overrides the config field
        code, out, _ = run_cli(["spectrum", "--config", str(cfg),
                                "--eta0", "0.1", "--theta0", "0.1",
                                "--n", "1..1", "--mphi", "0..0"])
        energy = float(out.strip().splitlines()[1].split(",")[5])
        assert energy != 3.0

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({"mechanism": "ec", "spring_k": 1.0}))
        monkeypatch.setenv("NCQM_CONFIG", str(cfg))
        code, out, _ = run_cli(["spectrum", "--n", "0..0", "--mphi", "0..0"])
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[5]) == 1.0

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, out, err = run_cli(["spectrum", "--config", str(cfg)])
        assert_refused(code, out, err)

    def test_unmet_tol_exit_2(self):
        # tol bounds the refined residual; a bound below the float floor
        # is reported, not silently exceeded
        code, out, err = run_cli(["spectrum", *EC_FLAGS, "--n", "0..4",
                                  "--mphi", "0..3", "--tol", "1e-30"])
        assert_refused(code, out, err)
        assert "residual" in err

    def test_deterministic_output_files(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for target in (out_a, out_b):
            code, _, _ = run_cli(["spectrum", *EC_FLAGS, "--n", "0..2",
                                  "--mphi", "0..2", "--out", str(target)])
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("args", [
    ["ring", "--radius", "nan"],
    ["wavefunction", "--r-max", "nan"],
    ["commutators", "--theta", "nan", "--eta", "0.1"],
    ["fractional", "--op", "caputo_exp", "--x", "1.0,inf"],
    ["spectrum", "--n", "3..1"],
    ["ring", "--no-such-flag", "1"],
    [],
    ["commutators", "--eta", "0.1"],
])
def test_non_finite_or_empty_input_exit_2(args):
    # a parse error and a refused command take the same path: main
    # returns 2 with one error line instead of argparse's usage block
    # and SystemExit
    assert_refused(*run_cli(args))


@pytest.mark.parametrize("args", [
    ["ring", "--phi-steps", "0"],
    ["ring", "--phi-steps", "-3"],
    ["ring", "--phi-steps", "0", "--l", "abc"],
    ["ring", "--l", "abc"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--points", "0"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--r-max", "0"],
    ["wavefunction", "--mechanism", "ec", "--spring-k", "1", "--r-max", "-2"],
    ["ring", "--radius", "1e200", "--l", "0..0"],
    ["ring", "--radius", "1e-200", "--l", "0..0"],
    ["ring", "--alpha-param", "1e-200", "--l", "0..0"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--n-trunc", "0"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--n-trunc", "121"],
])
def test_non_positive_count_or_bad_level_exit_2(args):
    # an empty flux sweep or sample grid used to exit 0 with a bare header
    assert_refused(*run_cli(args))


@pytest.mark.parametrize("flag,value,parsed,rest", [
    ("--eta", "-2e2", -200.0, ["commutators", "--theta", "1e3"]),
    ("--l", "-3..3", range(-3, 4), ["ring", "--phi-steps", "3"]),
    ("--x", "-3,-1", [-3.0, -1.0], ["fractional", "--op", "mittag_leffler",
                                    "--order", "1"]),
    ("--alpha", "-1e0", -1.0, ["spectrum", "--mechanism", "sqf",
                               "--eps", "1", "--eta0", "1",
                               "--n-alpha", "0..0", "--n-beta", "0..0"]),
])
def test_negative_value_after_its_flag(flag, value, parsed, rest):
    # argparse alone reads a token that starts with "-" and is not a plain
    # integer or decimal as an option ("expected one argument")
    args = build_parser().parse_args([*rest, flag, value])
    assert getattr(args, flag[2:]) == parsed
    spaced = run_cli([*rest, flag, value])
    assert spaced == run_cli([*rest, f"{flag}={value}"])
    assert spaced[0] == 0 and spaced[2] == ""


@pytest.mark.parametrize("args,message", [
    (["ring", "--l", "abc"],
     "error: argument --l: invalid range 'abc': use lo..hi or one integer"),
    (["spectrum", "--n", "1..x"],
     "error: argument --n: invalid range '1..x': use lo..hi or one integer"),
    (["spectrum", "--n", "3..1"],
     "error: argument --n: empty range '3..1': lo..hi needs hi >= lo"),
    (["spectrum", "--mechanism", "sqf", "--eps", "1", "--n-beta", "2..0"],
     "error: argument --n-beta: empty range '2..0': lo..hi needs hi >= lo"),
    (["fractional", "--op", "caputo_exp", "--x", "1,abc"],
     "error: argument --x: could not convert string to float: 'abc' in "
     "'1,abc'"),
    (["fractional", "--op", "caputo_exp", "--x", "1.0,inf"],
     "error: argument --x: not a finite number: 'inf' in '1.0,inf'"),
])
def test_range_and_list_refusals_name_the_flag(args, message):
    # the range and --x flags are argparse types, so a bad value is
    # refused while parsing, with the flag's name, before any work
    code, out, err = run_cli(args)
    assert_refused(code, out, err)
    assert err == message + "\n"


def test_parser_built_once_per_process(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        assert run_cli(["ring", "--phi-steps", "2", "--l", "0..0"])[0] == 0
        first = list(built)
        assert run_cli(["commutators", "--theta", "0.1", "--eta", "0.1",
                        "--n-trunc", "4"])[0] == 0
    finally:
        build_parser.cache_clear()  # no parser with the counting hook
    assert first.count("ncqm") == 1 and len(first) == 7  # six subcommands
    assert built == first


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
def test_malformed_config_exit_2(command, text, reason, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    for extra in ([], ["--theta0", "0.1"]):  # a flag does not mask the fault
        code, out, err = run_cli([command, "--config", str(cfg), *extra])
        assert_refused(code, out, err)
        assert reason in err


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
    def test_samples(self):
        code, out, _ = run_cli(["wavefunction", *EC_FLAGS, "--n", "0",
                                "--mphi", "0", "--points", "50"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,xi,R_value,density"
        assert len(lines) == 51
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == pytest.approx(first[2] ** 2, rel=1e-12)

    @pytest.mark.parametrize("r_max", ["1e308", "1e200"])
    def test_r_max_past_float_range_exit_2(self, r_max):
        # once exit 0 with inf,inf,0.0,0.0 (1e308) or 0.0 rows (1e200) and
        # two overflow warnings from xi^2
        code, out, err = run_cli(["wavefunction", *EC_FLAGS, "--r-max",
                                  r_max, "--points", "3"])
        assert_refused(code, out, err)
        assert err.startswith(f"error: --r-max {float(r_max)!r} puts xi^2")

    def test_r_max_inside_float_range(self):
        code, out, _ = run_cli(["wavefunction", *EC_FLAGS, "--r-max", "1e150",
                                "--points", "3"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in row)

    @pytest.mark.parametrize("args,reason", [
        (["--energy", "5", "--mphi", "1000", "--points", "3"],
         "not a positive normal double"),
        (["--energy", "5", "--mphi", "400", "--points", "3"],
         "not a positive normal double"),
        (["--n", "1000001"], "--n must be at most 1000000"),
    ])
    def test_unrepresentable_or_unbounded_level_exit_2(self, args, reason):
        # --mphi 1000 once exited 0 with nan rows (a traceback under
        # -W error), --mphi 400 with all-zero samples, and --n had no bound
        code, out, err = run_cli(["wavefunction", *EC_FLAGS, *args])
        assert_refused(code, out, err)
        assert reason in err

    def test_n_at_the_bound(self):
        code, out, _ = run_cli(["wavefunction", *EC_FLAGS, "--energy", "5",
                                "--n", "1000000", "--points", "3"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.strip().splitlines()[1:]]
        assert len(rows) == 3
        assert all(math.isfinite(v) for row in rows for v in row)

    def test_r_column_is_one_array_call(self):
        # at m_phi = 7 a scalar call per r differs from the array call in
        # the last bit on some rows; the table holds the array call's values
        argv = ["wavefunction", *EC_FLAGS, "--n", "0", "--mphi", "7",
                "--energy", "9.5", "--points", "333"]
        code, out, _ = run_cli(argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        p = _load_params(build_parser().parse_args(argv))
        sol = ec_radial_solution(QuantumNumbers(m_phi=7), p, 9.5)
        r = [float(row[0]) for row in rows]
        assert [float(row[2]) for row in rows] == sol(r).tolist()

    @pytest.mark.parametrize("mechanism", ["eo_i", "sqf"])
    @pytest.mark.parametrize("energy", [["--energy", "3"], []])
    def test_non_ec_mechanism_exit_2(self, mechanism, energy):
        # with --energy the EC wave functions were once printed (exit 0);
        # without it the error named ec_solve_energy
        code, out, err = run_cli(["wavefunction", "--mechanism", mechanism,
                                  "--spring-k", "1", *energy])
        assert_refused(code, out, err)
        assert err.startswith("error: wavefunction ")
        assert f"requires mechanism=ec, got {mechanism}" in err


class TestCommutatorsCommand:
    def test_residual_report(self):
        # strict JSON (no NaN or Infinity) below 1e-10, also at the cap
        for theta, eta, n_trunc in (("0.1", "0.05", "20"),
                                    ("0.7", "0.9", "120")):
            code, out, _ = run_cli(["commutators", "--theta", theta,
                                    "--eta", eta, "--n-trunc", n_trunc])
            assert code == 0
            doc = strict_json(out)
            assert len(doc) == 6
            assert all(d["max_residual"] < 1e-10 for d in doc)


    @pytest.mark.parametrize("theta,eta", [("1e200", "0.1"),
                                           ("1e300", "1e300")])
    def test_overflowing_strengths_exit_2(self, theta, eta):
        # once exit 0 with "max_residual": NaN, or an overflow warning
        code, out, err = run_cli(["commutators", "--theta", theta,
                                  "--eta", eta])
        assert_refused(code, out, err)


@pytest.mark.parametrize("args", [
    ["spectrum", *EC_FLAGS, "--bracket", "0", "1e308"],
    ["spectrum", *EC_FLAGS, "--bracket", "1e-300", "1e300"],
    ["spectrum", *EC_FLAGS, "--tol", "-1"],
    ["ring", "--eta", "1e308"],
    ["ring", "--eta", "1e200"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--hbar", "1e-300"],
    ["commutators", "--theta", "0.1", "--eta", "0.1", "--hbar", "1e300"],
    ["fractional", "--op", "gl_half_derivative_x", "--step", "1e-300",
     "--x", "1"],
    ["fractional", "--op", "gl_half_derivative_x", "--step", "1e-300",
     "--x", "1e308"],
])
def test_overflowing_bracket_tol_or_ring_strength_exit_2(args):
    # the brackets and --eta 1e200 once exited 1 with an OverflowError
    # traceback, --eta 1e308 exited 0 with nan,inf rows, and --tol -1
    # blamed the residual; --hbar 1e-300 (1e300) exited 1 with a
    # ZeroDivisionError (OverflowError) traceback, and the Grünwald-Letnikov
    # step 1e-300 never returned at --x 1 and overflowed at --x 1e308
    code, out, err = run_cli(args)
    assert_refused(code, out, err)


@pytest.mark.parametrize("args,reason", [
    (["spectrum", "--mechanism", "sqf", "--eps", "1", "--eta0", "1",
      "--hbar", "1e200"], "squares to inf"),
    (["spectrum", "--mechanism", "sqf", "--eps", "1", "--eta0", "1",
      "--hbar", "1e-200"], "squares to 0.0"),
    (["spectrum", *EC_FLAGS, "--hbar", "1e200"], "squares to inf"),
    (["spectrum", *EC_FLAGS, "--hbar", "1e-200"], "squares to 0.0"),
    (["wavefunction", *EC_FLAGS, "--hbar", "1e200"], "squares to inf"),
    (["wavefunction", *EC_FLAGS, "--hbar", "1e-200"], "squares to 0.0"),
    (["spectrum", "--mechanism", "sqf", "--eps", "1", "--eta0", "1e150",
      "--hbar", "1e-150", "--n-alpha", "0..0", "--n-beta", "0..0"],
     "SQF level at eps=1.0 is inf"),
    (["spectrum", *EC_FLAGS, "--e-ref", "1e-320", "--n", "0", "--mphi",
      "0"], "e_ref must be in [2.2250738585072014e-308, inf), got 1e-320"),
    (["wavefunction", *EC_FLAGS, "--e-ref", "1e-320"],
     "e_ref must be in [2.2250738585072014e-308, inf), got 1e-320"),
    (["spectrum", *EC_FLAGS, "--spring-k", "1e308"],
     "the coefficients leave the double range at 2401 of 2401"),
    (["fractional", "--op", "plane_wave", "--order", "1000", "--x", "10"],
     "(E/hbar)^order leaves the double range at order=1000.0"),
    (["fractional", "--op", "plane_wave", "--order", "400", "--x", "1e300"],
     "(E/hbar)^order leaves the double range at order=400.0"),
    (["fractional", "--op", "mittag_leffler", "--order", "1e-9", "--x",
      "1.000000001"], "mittag_leffler cannot converge in 1000000 terms"),
    (["ring", "--phi-start", "1e308", "--phi-stop", "1e308", "--phi-steps",
      "1"], "flux_ext must be in (-inf, inf), got inf"),
])
def test_hbar_or_level_past_float_range_exit_2(args, reason):
    # the --hbar argv ended in an OverflowError (1e200) or a
    # ZeroDivisionError (1e-200) traceback, the SQF level was printed as
    # inf with exit 0, a subnormal --e-ref said "bad bracket (inf, inf)"
    # and --spring-k 1e308 printed five RuntimeWarnings before its error;
    # the plane-wave power overflows, the Mittag-Leffler series at order
    # 1e-9 would need more terms than its budget, and the ring flux
    # 1e308 phi0 overflows to inf (once "ring level l=-2 ... is inf")
    code, out, err = run_cli(args)
    assert_refused(code, out, err)
    assert reason in err


@pytest.mark.parametrize("args,rows", [
    (["ring", "--l", "0..400000000", "--phi-steps", "1"], 400000001),
    (["ring", "--l", "0..100000000000000000000", "--phi-steps", "1"],
     10 ** 20 + 1),
    (["ring", "--phi-steps", "100000000", "--l", "0..0"], 10 ** 8),
    (["spectrum", "--mechanism", "sqf", "--eps", "1", "--n-alpha",
      "0..100000000000000000000"], 3 * (10 ** 20 + 1)),
    (["spectrum", *EC_FLAGS, "--n", "0..1000", "--mphi", "0..999"],
     1001 * 1000),
    (["wavefunction", *EC_FLAGS, "--points", "400000000"], 400000000),
])
def test_oversized_table_exit_2(args, rows):
    # the ranges were lists: a MemoryError or an OverflowError from len, or
    # a run of minutes, each ending in a traceback
    code, out, err = run_cli(args)
    assert_refused(code, out, err)
    assert err == (f"error: the table would have {rows} rows, more than "
                   f"{MAX_ROWS}\n")


def test_row_bound_is_inclusive():
    _check_rows(range(0, 1000), 1000)
    _check_rows(range(5, 5 + MAX_ROWS))
    with pytest.raises(ValueError, match=f"{MAX_ROWS + 1} rows"):
        _check_rows(range(-1, MAX_ROWS))


class TestFractionalCommand:
    def test_half_derivative_table(self):
        code, out, _ = run_cli(["fractional", "--op", "half_derivative_x",
                                "--x", "0.5,1.0"])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            assert float(parts[3]) == pytest.approx(float(parts[4]),
                                                    rel=1e-12)

    def test_gl_x_below_the_terminal_exit_2(self):
        # once a bare "math domain error" from the reference column
        code, out, err = run_cli(["fractional", "--op",
                                  "gl_half_derivative_x", "--x", "-1"])
        assert_refused(code, out, err)
        assert err == "error: x must be in [0, inf), got -1.0\n"

    def test_mittag_leffler_cancellation_exit_2(self):
        # E_1(-30) = e^-30 is summed from terms up to 8e11: no digit is left
        code, out, err = run_cli(["fractional", "--op", "mittag_leffler",
                                  "--order", "1", "--x", "-30"])
        assert_refused(code, out, err)
        assert "error: mittag_leffler cancellation" in err


class TestRingCommand:
    def test_sweep(self):
        code, out, _ = run_cli(["ring", "--phi-steps", "5", "--l", "0..1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi_over_phi0,l,energy,current"
        assert len(lines) == 1 + 5 * 2


class TestVerifyCommand:
    def test_passes_and_reports_divergences(self, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, err = run_cli(["verify", "--out", str(out_file)])
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["all_passed"] is True
        assert "bogoliubov_single_vs_two_frequency" in \
            doc["expected_divergences"]
        assert "caputo_oscillatory_mismatch" in doc["expected_divergences"]
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["bogoliubov_single_vs_two_frequency"] == \
            "expected_divergence"


def test_overflowing_scan_points_raise_no_warning():
    # theta = 0.1 (E/10)^200 overflows past E ~ 350, inside the default
    # bracket: the scan once printed four RuntimeWarnings (a traceback
    # under -W error) before the table
    code, out, err = run_cli(["spectrum", *EC_FLAGS, "--beta", "200"])
    assert code == 0
    header, *rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 16
    assert all(math.isfinite(float(row[5])) for row in rows)
