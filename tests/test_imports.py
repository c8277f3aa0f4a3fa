"""What importing ncqm and running a subcommand loads, and what a fresh
process writes.

Structural checks on sys.modules, not timings. IMPORT_RULES is one
table; each row runs in a fresh interpreter and names the argv, its exit
code, the modules that must then be loaded and the packages from which
nothing may load. ``import ncqm.cli`` loads ncqm, cli, errors and params
and nothing else; ``--help``, ``ring`` and the refusals made before any
computation load no numpy or scipy; the README spectrum (no specfun
either), the README ``wavefunction``, ``commutators`` and the
``fractional`` operators and ``verify`` load no scipy.
Also in fresh interpreters: ``params`` imported before numpy computes
what it computes after; ``import ncqm.oracle`` loads neither
``ncqm.spectra`` nor scipy; a radial and a Fock self-consistent solve
load no scipy; ``python -m ncqm.cli
verify`` writes the same report bytes under PYTHONHASHSEED 1 and 2;
``python -m ncqm.cli`` with ``--help`` or ``ring``, the command as typed,
imports no numpy or scipy. In this process: sampling radial states
imports no scipy.
"""

import json
import math
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ncqm
from ncqm import params, spectra, specfun, wavefunctions

SRC = Path(ncqm.__file__).resolve().parents[1]

LOADED = """
import contextlib, io, json, sys
import ncqm.cli
argv, expected = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ncqm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == expected, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("ncqm", "scipy",
                                                   "numpy"))))
"""

README_SPECTRUM = ["spectrum", "--mechanism", "ec", "--eta0", "0.1",
                   "--theta0", "0.1", "--alpha", "1", "--beta", "1",
                   "--e-ref", "10", "--spring-k", "1", "--n", "0..4",
                   "--mphi", "0..3"]

README_WAVEFUNCTION = ["wavefunction", *README_SPECTRUM[1:-4], "--n", "1",
                       "--mphi", "1", "--points", "3"]


SELF_CONSISTENT = """
import json, sys
from ncqm.oracle import self_consistent_wrap
from ncqm.params import params_from_dict
from ncqm.spectra import QuantumNumbers
p = params_from_dict({"mechanism": "ec", "eta0": 0.1, "theta0": 0.1,
                      "alpha": 1.0, "beta": 1.0, "e_ref": 10.0,
                      "spring_k": 1.0})
self_consistent_wrap("radial", p, QuantumNumbers(n=1, m_phi=1))
self_consistent_wrap("fock", p, QuantumNumbers(n=1, m_phi=1))
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("ncqm", "scipy"))))
"""


def fresh_run(*argv, **env):
    """A finished fresh interpreter that imports this ncqm, run with the
    interpreter arguments argv ("-c", script, ... or "-m", module, ...) and
    the variables env on top of this process's environment."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, check=True)


def fresh_stdout(*argv, **env):
    return fresh_run(*argv, **env).stdout


def loaded_after(argv, script=LOADED, code=0):
    """ncqm, scipy and numpy modules loaded once main(argv) has returned
    code (after the import alone for argv None)."""
    return set(json.loads(fresh_stdout("-c", script,
                                       json.dumps([argv, code]))))


def under(modules, package):
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


EC_FLAGS = README_SPECTRUM[1:-4]
NO_ARRAYS = ("numpy", "scipy")
NO_SCIPY = ("scipy",)


def ncqm_except(*names):
    """The ncqm modules other than the given ones (package-relative)."""
    return tuple(f"ncqm.{m.name}" for m in pkgutil.iter_modules(ncqm.__path__)
                 if m.name not in names)


def rule(name, argv, code, loaded, none_from):
    """One import rule: once main(argv) has returned code (argv None: once
    ncqm.cli is imported), every module in loaded is loaded and nothing
    from the packages in none_from."""
    return pytest.param(argv, code, set(loaded), none_from, id=name)


IMPORT_RULES = [
    rule("import", None, 0, {"ncqm", "ncqm.cli", "ncqm.errors",
                             "ncqm.params"},
         (*NO_ARRAYS, *ncqm_except("cli", "errors", "params"))),
    # each subcommand runs its checks before it imports the modules it
    # computes with, and params looks numpy up instead of importing it
    rule("help", ["--help"], 0, (), NO_ARRAYS),
    rule("ring", ["ring", "--phi-steps", "3"], 0, (), NO_ARRAYS),
    rule("ring_negative_l", ["ring", "--l", "-3..3", "--phi-steps", "3"], 0,
         (), NO_ARRAYS),
    rule("parse_error", ["spectrum", "--n", "abc"], 2, (), NO_ARRAYS),
    rule("sqf_without_eps", ["spectrum", "--mechanism", "sqf"], 2, (),
         NO_ARRAYS),
    rule("eo", ["spectrum", "--mechanism", "eo_i"], 2, (), NO_ARRAYS),
    rule("e_ref", ["spectrum", *EC_FLAGS, "--e-ref", "1e-320"], 2, (),
         NO_ARRAYS),
    rule("rows", ["spectrum", *EC_FLAGS, "--n", "0..2000000"], 2, (),
         NO_ARRAYS),
    rule("r_max", ["wavefunction", *EC_FLAGS, "--r-max", "-1"], 2, (),
         NO_ARRAYS),
    rule("hbar", ["commutators", "--theta", "1", "--eta", "1", "--hbar",
                  "1e300"], 2, (), NO_ARRAYS),
    # Brent's method is in spectra itself and beta_fn is imported only by
    # fractional_oscillator_levels, so solving the levels needs numpy alone
    rule("readme_spectrum", README_SPECTRUM, 0, {"ncqm.spectra"},
         (*NO_SCIPY, "ncqm.specfun")),
    # log_gamma is math.lgamma and laguerre runs its numpy recurrence up to
    # n = 20, so the README state needs no scipy
    rule("readme_wavefunction", README_WAVEFUNCTION, 0,
         {"ncqm.wavefunctions"}, NO_SCIPY),
    # the operators are numpy diagonals, so forming and reading the
    # commutators needs no scipy.sparse, at small or large strengths
    rule("commutators", ["commutators", "--theta", "0.7", "--eta", "0.9"], 0,
         {"ncqm.algebra"}, NO_SCIPY),
    rule("commutators_large", ["commutators", "--theta", "1e3", "--eta",
                               "-2e2"], 0, {"ncqm.algebra"}, NO_SCIPY),
    # scipy.integrate is imported by riemann_liouville alone, and the
    # power-series operator takes no gamma function from scipy.special
    rule("half_derivative", ["fractional", "--op", "half_derivative_x",
                             "--x", "0.5,1.0,2.0"], 0, {"ncqm.fractional"},
         NO_SCIPY),
    # the Mittag-Leffler series takes 1/Gamma from math.gamma
    rule("caputo_exp", ["fractional", "--op", "caputo_exp"], 0,
         {"ncqm.specfun"}, NO_SCIPY),
    rule("mittag_leffler", ["fractional", "--op", "mittag_leffler",
                            "--order", "0.5"], 0, {"ncqm.specfun"}, NO_SCIPY),
    rule("caputo_exp_x", ["fractional", "--op", "caputo_exp", "--x",
                          "0.5,1,2"], 0, {"ncqm.specfun"}, NO_SCIPY),
    rule("mittag_leffler_beta", ["fractional", "--op", "mittag_leffler",
                                 "--order", "2", "--ml-beta", "-0.5", "--x",
                                 "1.5"], 0, {"ncqm.specfun"}, NO_SCIPY),
    # the beta check sums cached Gauss-Legendre nodes in numpy, beta_fn is
    # math.gamma and the radial oracle's tridiagonal eigenvalues are its
    # own, so verify needs no scipy
    rule("verify", ["verify", "--out", os.devnull], 0, {"ncqm.verify"},
         NO_SCIPY),
]


@pytest.mark.parametrize("argv,code,loaded,none_from", IMPORT_RULES)
def test_import_rule(argv, code, loaded, none_from):
    modules = loaded_after(argv, code=code)
    assert loaded <= modules, sorted(loaded - modules)
    for package in none_from:
        assert under(modules, package) == [], package


@pytest.mark.parametrize("argv", [["--help"], ["ring", "--phi-steps", "3"],
                                  ["ring", "--l", "-3..3", "--phi-steps", "3"]])
def test_help_and_ring_load_no_scipy(argv):
    # the table runs main(argv) from a script; this runs the command as
    # typed, with ncqm.cli executed as __main__, and reads every import
    # from -X importtime (one "import time: ... | <module>" line each)
    stderr = fresh_run("-X", "importtime", "-m", "ncqm.cli", *argv).stderr
    imported = {line.rpartition("|")[2].strip()
                for line in stderr.splitlines()
                if line.startswith("import time:")}
    assert "ncqm.params" in imported
    for package in NO_ARRAYS:
        assert under(imported, package) == [], package


COEFFICIENTS = """
import dataclasses, json, sys
if sys.argv[1] == "numpy first":
    import numpy
import ncqm.params as params
numpy_before = "numpy" in sys.modules
import numpy as np
names = [f.name for f in dataclasses.fields(params.EffectiveCoefficients)]
names.append("omega_h")
grid = np.geomspace(1e-5, 1e5, 257)
tables = []
for doc in json.loads(sys.argv[2]):
    p = params.params_from_dict(doc)
    table = {}
    for kind, energies in (("array", grid), ("float", grid.tolist()),
                           ("float64", list(grid))):
        coeffs = ([params.effective_coefficients(p, grid)]
                  if kind == "array" else
                  [params.effective_coefficients(p, e) for e in energies])
        table[kind] = {name: [[type(getattr(c, name)).__name__
                               for c in coeffs],
                              np.ravel([getattr(c, name)
                                        for c in coeffs]).tolist()]
                       for name in names}
    tables.append(table)
print(json.dumps({"numpy_before": numpy_before, "tables": tables}))
"""

COEFFICIENT_PARAMS = [
    {"mechanism": "ec", "eta0": 0.1, "theta0": 0.1, "alpha": 1.0,
     "beta": 1.0, "e_ref": 10.0, "spring_k": 1.0},     # the README point
    {"eta0": 0.3, "theta0": 0.2, "alpha": 1.5, "beta": 0.7, "e_ref": 3.0,
     "spring_k": 2.0},
    {"eta0": 0.3, "theta0": 0.0, "alpha": -1.5, "beta": 0.7, "e_ref": 3.0},
]


def test_params_before_numpy_computes_as_after():
    # arrays are recognised through sys.modules, so importing params
    # before numpy changes no value and no type: each table is bit for
    # bit the one computed with numpy loaded first (JSON keeps every
    # double through repr)
    docs = json.dumps(COEFFICIENT_PARAMS)
    first = json.loads(fresh_stdout("-c", COEFFICIENTS, "params first",
                                    docs))
    later = json.loads(fresh_stdout("-c", COEFFICIENTS, "numpy first", docs))
    assert first["numpy_before"] is False
    assert later["numpy_before"] is True
    assert first["tables"] == later["tables"]
    for table in first["tables"]:
        for name, (types, values) in table["array"].items():
            assert types == ["ndarray"], name
            # the array pass matches the scalar calls within a few ulp
            # (numpy's and libm's pow may round the strengths differently)
            np.testing.assert_allclose(values, table["float"][name][1],
                                       rtol=8.0 * sys.float_info.epsilon,
                                       atol=0.0, err_msg=name)
        assert {t for types, _ in table["float"].values() for t in types} \
            == {"float"}
    # an np.float64 energy is read as a Python float, so every field,
    # stored or computed, is a float
    readme = first["tables"][0]["float64"]
    assert {name: set(types) for name, (types, _) in readme.items()} == {
        "b_e": {"float"}, "k_e": {"float"}, "b_h": {"float"},
        "k_h": {"float"}, "m_star": {"float"}, "omega_h": {"float"}}


def test_oracle_import_loads_no_spectra_and_no_scipy():
    # the oracle cross-checks the closed forms and the root-finder of
    # spectra end to end, so it must share no code with them
    loaded = set(json.loads(fresh_stdout(
        "-c", "import json, sys, ncqm.oracle; "
        "print(json.dumps(sorted(sys.modules)))")))
    assert "ncqm.oracle" in loaded
    assert "ncqm.spectra" not in loaded
    assert under(loaded, "scipy") == []


def test_radial_self_consistent_solve_loads_no_scipy_optimize():
    # the secant is a port in the oracle itself, the unit level comes
    # from the oracle's own Sturm-Newton eigenvalues and the Fock levels
    # from numpy, so the radial and the Fock solve load no scipy at all
    loaded = set(json.loads(fresh_stdout("-c", SELF_CONSISTENT)))
    assert "ncqm.oracle" in loaded
    assert under(loaded, "scipy") == []


def test_verify_report_is_the_same_under_two_hash_seeds(tmp_path):
    # no set or dict order that follows str hashing reaches the report:
    # two processes with different hash seeds write the same bytes
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"verify-{seed}.json"
        fresh_stdout("-m", "ncqm.cli", "verify", "--out", str(out),
                     PYTHONHASHSEED=seed)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_radial_states_import_no_scipy(monkeypatch):
    # scipy is already loaded in this process, so block it: every import
    # of scipy or a scipy submodule now raises ImportError
    for name in ["scipy", *under(sys.modules, "scipy")]:
        monkeypatch.setitem(sys.modules, name, None)
    for module in (params, spectra, specfun, wavefunctions):
        assert not [value for value in vars(module).values()
                    if isinstance(value, types.ModuleType)
                    and value.__name__.partition(".")[0] == "scipy"]
    p = params.params_from_dict({"mechanism": "ec", "eta0": 0.1,
                                 "theta0": 0.1, "alpha": 1.0, "beta": 1.0,
                                 "e_ref": 10.0, "spring_k": 1.0})
    for n in range(4):
        for m_phi in range(4):
            qn = spectra.QuantumNumbers(n=n, m_phi=m_phi)
            energy = spectra.ec_solve_energy(
                qn, p, spectra.ec_default_bracket(qn, p)).energy
            for regime in ("laguerre", "bessel"):
                sol = wavefunctions.ec_radial_solution(qn, p, energy, regime)
                xi_max = (math.sqrt(2.0 * (2 * n + m_phi + 1)) + 4.0
                          if regime == "laguerre" else
                          math.sqrt(wavefunctions.BESSEL_WINDOW * sol.c_big))
                xi = (np.arange(256) + 0.5) / 256 * xi_max
                samples = sol(xi / math.sqrt(sol.lambda_scale))
                assert np.all(np.isfinite(samples))


class TestLazyNamespace:
    def test_public_names_are_the_defining_modules_objects(self):
        for name in ncqm.__all__:
            obj = getattr(ncqm, name)
            home = {"ncqm.params": params,
                    "ncqm.spectra": spectra}[obj.__module__]
            assert getattr(home, name) is obj
            assert name in dir(ncqm)

    def test_star_import_gives_all(self):
        namespace = {}
        exec("from ncqm import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(ncqm.__all__)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ncqm.no_such_name
        assert not hasattr(ncqm, "algebra_of_nothing")

    def test_names_follow_a_rebinding_in_their_module(self, monkeypatch):
        # nothing is cached in the package, so a wrapper installed in the
        # defining module is what ncqm.<name> returns, and undoing it
        # restores the original
        original = spectra.ec_solve_energy
        monkeypatch.setattr(spectra, "ec_solve_energy", len)
        assert ncqm.ec_solve_energy is len
        monkeypatch.undo()
        assert ncqm.ec_solve_energy is original
        assert "ec_solve_energy" not in vars(ncqm)
