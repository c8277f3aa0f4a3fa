"""What importing ncqm and running a subcommand loads.

Structural checks on sys.modules in fresh interpreters, not timings:
``import ncqm.cli`` loads only errors and params, ``--help``, ``ring`` and
the README spectrum load no scipy, and ``wavefunction`` loads
``scipy.special`` but not ``scipy.optimize``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncqm
from ncqm import params, spectra

SRC = Path(ncqm.__file__).resolve().parents[1]

LOADED = """
import contextlib, io, json, sys
import ncqm.cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = ncqm.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, code
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] in ("ncqm", "scipy"))))
"""

README_SPECTRUM = ["spectrum", "--mechanism", "ec", "--eta0", "0.1",
                   "--theta0", "0.1", "--alpha", "1", "--beta", "1",
                   "--e-ref", "10", "--spring-k", "1", "--n", "0..4",
                   "--mphi", "0..3"]

README_WAVEFUNCTION = ["wavefunction", *README_SPECTRUM[1:-4], "--n", "1",
                       "--mphi", "1", "--points", "3"]


def loaded_after(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", LOADED, json.dumps(argv)],
                          env=env, capture_output=True, text=True,
                          check=True)
    return set(json.loads(done.stdout))


def under(modules, package):
    return sorted(m for m in modules
                  if m == package or m.startswith(package + "."))


def test_cli_module_imports_only_errors_and_params():
    loaded = loaded_after(None)
    assert under(loaded, "ncqm") == ["ncqm", "ncqm.cli", "ncqm.errors",
                                     "ncqm.params"]
    assert under(loaded, "scipy") == []


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


def test_wavefunction_loads_special_but_not_optimize():
    loaded = loaded_after(README_WAVEFUNCTION)
    assert "ncqm.wavefunctions" in loaded
    assert "scipy.special" in loaded
    assert under(loaded, "scipy.optimize") == []
    assert under(loaded, "scipy.integrate") == []


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
