"""The CLI boundary as a property: argv drawn from each flag's type either
runs (exit 0, every CSV field finite, the JSON strict) or is refused
(exit 2, one ``error:`` line, empty stdout), and never ends in a traceback
or a RuntimeWarning.

Floats are drawn in magnitude from 1e-300 to 1e308, both signs and zero,
in repr, exponent and short forms; counts and ranges on both sides of
their bounds. Examples are derandomized so that the suite checks the same
argv on every run.
"""

import contextlib
import csv
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncqm.cli import MAX_ROWS, main  # noqa: E402

BOUNDARY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True, database=None)


@st.composite
def real_text(draw):
    """A finite float as a command line writes it."""
    value = draw(st.one_of(
        st.just(0.0),
        st.builds(lambda mantissa, exp10: mantissa * 10.0 ** exp10,
                  st.floats(1.0, 9.99), st.integers(-300, 307)),
        st.floats(0.0, 4.0)))
    if draw(st.booleans()):
        value = -value
    style = draw(st.sampled_from(["{!r}", "{:e}", "{:g}"]))
    return style.format(value)


def count_text(*edges):
    """An integer count: small (zero and negatives too), one of the given
    edges, or more than MAX_ROWS."""
    return st.one_of(st.integers(-3, 12),
                     st.sampled_from(edges) if edges else st.nothing(),
                     st.integers(MAX_ROWS + 1, 10 ** 20)).map(str)


@st.composite
def range_text(draw):
    """``lo..hi`` or a single level: short ranges (empty ones too) or ones
    longer than MAX_ROWS."""
    lo = draw(st.integers(-10 ** 20, 10 ** 20) | st.integers(-4, 4))
    span = draw(st.integers(-2, 3) | st.integers(MAX_ROWS, 10 ** 20))
    return draw(st.sampled_from([f"{lo}..{lo + span}", str(lo)]))


def flags(**strategies):
    """argv fragments for a random subset of the given flags."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda chosen: [tok for flag, value in chosen.items()
                        for tok in (f"--{flag.replace('_', '-')}", value)])


def run(argv):
    """stdout of an exit-0 run, or None after checking the refusal."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")
        return None
    assert code == 0, (argv, code, err.getvalue())
    return out.getvalue()


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@BOUNDARY_SETTINGS
@given(theta=real_text(), eta=real_text(),
       extra=flags(hbar=real_text(), n_trunc=count_text(119, 120, 121)))
def test_commutators_runs_or_refuses(theta, eta, extra):
    out = run(["commutators", "--theta", theta, "--eta", eta, *extra])
    if out is not None:
        entries = json.loads(out, parse_constant=_refuse_constant)
        assert len(entries) == 6


@BOUNDARY_SETTINGS
@given(extra=flags(radius=real_text(), alpha_param=real_text(),
                   eta=real_text(), phi_start=real_text(),
                   phi_stop=real_text(), phi_steps=count_text(),
                   l=range_text()))
def test_ring_runs_or_refuses(extra):
    out = run(["ring", *extra])
    if out is not None:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["phi_over_phi0", "l", "energy", "current"]
        assert rows
        assert all(math.isfinite(float(v)) for row in rows for v in row)
