"""Helpers shared by the test modules, imported from them by name.

run_cli and assert_refused state the CLI contract once: a refusal is
exit 2, an empty stdout and one ``error:`` line on stderr, and no command
may warn. strict_json reads a report that must hold no NaN or Infinity,
and ec_params builds an energy-coupled model.
"""

import contextlib
import io
import json
import warnings

from ncqm.cli import main
from ncqm.params import Mechanism, ModelParams, PhysicalConstants


def run_cli(argv):
    """(exit code, stdout, stderr) of main(argv) run under
    warnings.simplefilter("error"), as ``python -W error`` runs it: a
    command that warns fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """json.loads, refusing NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def ec_params(**kw):
    """An EC model with the README strengths (eta0 = theta0 = 0.1,
    alpha = beta = 1, e_ref = 10), a free particle unless constants say
    otherwise; a keyword overrides its field."""
    constants = PhysicalConstants(**kw.pop("constants", {}))
    defaults = dict(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                    e_ref=10.0, mechanism=Mechanism.EC)
    defaults.update(kw)
    return ModelParams(constants=constants, **defaults)
