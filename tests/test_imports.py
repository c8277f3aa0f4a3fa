"""What importing ncqm and running a subcommand loads.

Structural checks on sys.modules, not timings. In fresh interpreters:
``import ncqm.cli`` loads only errors and params, and no numpy;
``--help``, ``ring`` and the refusals made before any computation load
no numpy; ``params`` imported before numpy computes what it computes
after; the README spectrum, the README ``wavefunction``, ``commutators``
and ``fractional --op half_derivative_x`` load no scipy;
``fractional --op caputo_exp`` loads no ``scipy.integrate``; a radial
self-consistent solve loads ``scipy.linalg`` and no ``scipy.optimize``.
In this process: sampling radial states imports no scipy.
"""

import json
import math
import os
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
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("ncqm", "scipy"))))
"""


def fresh_stdout(script, *args):
    """stdout of script run in a fresh interpreter that imports this ncqm."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def loaded_after(argv, script=LOADED, code=0):
    """ncqm, scipy and numpy modules loaded once main(argv) has returned
    code (after the import alone for argv None)."""
    return set(json.loads(fresh_stdout(script, json.dumps([argv, code]))))


def under(modules, package):
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


def test_cli_module_imports_only_errors_and_params():
    loaded = loaded_after(None)
    assert under(loaded, "ncqm") == ["ncqm", "ncqm.cli", "ncqm.errors",
                                     "ncqm.params"]
    assert under(loaded, "numpy") == []
    assert under(loaded, "scipy") == []


EC_FLAGS = README_SPECTRUM[1:-4]


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["ring", "--phi-steps", "3"], 0),
    (["spectrum", "--n", "abc"], 2),              # parse error
    (["spectrum", "--mechanism", "sqf"], 2),      # no --eps
    (["spectrum", "--mechanism", "eo_i"], 2),     # no EO table
    (["spectrum", *EC_FLAGS, "--e-ref", "1e-320"], 2),   # config refusal
    (["spectrum", *EC_FLAGS, "--n", "0..2000000"], 2),   # over MAX_ROWS
    (["wavefunction", *EC_FLAGS, "--r-max", "-1"], 2),
    (["commutators", "--theta", "1", "--eta", "1", "--hbar", "1e300"], 2),
], ids=["help", "ring", "parse_error", "sqf_without_eps", "eo", "e_ref",
        "rows", "r_max", "hbar"])
def test_commands_without_arrays_load_no_numpy(argv, code):
    # each subcommand runs its checks before it imports the modules it
    # computes with, and params looks numpy up instead of importing it
    loaded = loaded_after(argv, code=code)
    assert under(loaded, "numpy") == []
    assert under(loaded, "scipy") == []


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
    first = json.loads(fresh_stdout(COEFFICIENTS, "params first", docs))
    later = json.loads(fresh_stdout(COEFFICIENTS, "numpy first", docs))
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
    # an np.float64 energy keeps numpy scalars in the stored fields; the
    # computed omega_h is math.sqrt's Python float
    readme = first["tables"][0]["float64"]
    assert {name: set(types) for name, (types, _) in readme.items()} == {
        "b_e": {"float64"}, "k_e": {"float64"}, "b_h": {"float64"},
        "k_h": {"float64"}, "m_star": {"float64"}, "omega_h": {"float"}}


@pytest.mark.parametrize("argv", [["--help"], ["ring", "--phi-steps", "3"]])
def test_help_and_ring_load_no_scipy(argv):
    assert under(loaded_after(argv), "scipy") == []


def test_readme_spectrum_loads_no_scipy():
    # Brent's method is in spectra itself and beta_fn is imported only by
    # fractional_oscillator_levels, so solving the levels needs numpy alone
    loaded = loaded_after(README_SPECTRUM)
    assert "ncqm.spectra" in loaded
    assert "ncqm.specfun" not in loaded
    assert under(loaded, "scipy") == []


def test_readme_wavefunction_loads_no_scipy():
    # log_gamma is math.lgamma and laguerre runs its numpy recurrence up to
    # n = 20, so the README state needs no scipy
    loaded = loaded_after(README_WAVEFUNCTION)
    assert "ncqm.wavefunctions" in loaded
    assert under(loaded, "scipy") == []


def test_commutators_load_no_scipy():
    # the operators are numpy diagonals, so forming and reading the
    # commutators needs no scipy.sparse
    loaded = loaded_after(["commutators", "--theta", "0.7", "--eta", "0.9"])
    assert "ncqm.algebra" in loaded
    assert under(loaded, "scipy") == []


def test_fractional_half_derivative_loads_no_scipy():
    # scipy.integrate is imported by riemann_liouville alone, and the
    # power-series operator takes no gamma function from scipy.special
    loaded = loaded_after(["fractional", "--op", "half_derivative_x",
                           "--x", "0.5,1.0,2.0"])
    assert "ncqm.fractional" in loaded
    assert under(loaded, "scipy") == []


def test_fractional_caputo_exp_loads_no_scipy_integrate():
    loaded = loaded_after(["fractional", "--op", "caputo_exp"])
    assert "scipy.special" in loaded
    assert under(loaded, "scipy.integrate") == []


def test_radial_self_consistent_solve_loads_no_scipy_optimize():
    # the secant is a port in the oracle itself, and the unit level is
    # scipy.linalg's tridiagonal eigensolve
    loaded = set(json.loads(fresh_stdout(SELF_CONSISTENT)))
    assert "ncqm.oracle" in loaded
    assert "scipy.linalg" in loaded
    assert under(loaded, "scipy.optimize") == []


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
