"""The CLI boundary as a property: argv drawn from each flag's type either
runs (exit 0, every CSV field finite, the JSON strict) or is refused
(exit 2, one ``error:`` line, empty stdout), and never ends in a traceback
or a RuntimeWarning.

Floats are drawn in magnitude from 1e-300 to 1e308, both signs and zero,
in repr, exponent and short forms; counts and ranges on both sides of
their bounds. ``spectrum`` also draws JSON configs (non-objects and
unknown keys included), e_ref down to subnormal 1e-320, spring_k up to
1e308 and exponents up to +-200, over a bare command line, the README EC
point or an SQF oscillator. Examples are derandomized so that the suite
checks the same argv on every run.
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


@st.composite
def magnitude_text(draw, lowest, highest):
    """A positive float from 10**lowest to about 10**highest (subnormals
    included when lowest < -307), in repr form."""
    exp10 = draw(st.integers(lowest, highest))
    return repr(draw(st.floats(1.0, 9.99)) * 10.0 ** exp10)


def exponent_text():
    return st.floats(-200.0, 200.0).map(repr)


def positive_text(lowest=-300, highest=307):
    """Mostly a positive magnitude, sometimes any real_text (zero and
    negatives too)."""
    return magnitude_text(lowest, highest) | real_text()


def spectrum_values():
    """The spectrum flags, each a strategy for its text."""
    return {"mechanism": st.sampled_from(["ec", "sqf", "eo_i", "eo_ii"]),
            "eta0": positive_text(), "theta0": positive_text(),
            "alpha": exponent_text(), "beta": exponent_text(),
            "e_ref": magnitude_text(-320, 307),
            "spring_k": st.just("0") | magnitude_text(-300, 307),
            "hbar": positive_text(-160, 160), "eps": positive_text()}


def level_range():
    """A short range of levels from zero, or any range_text."""
    return st.sampled_from(["0", "0..3", "2..4"]) | range_text()


@st.composite
def few_flags(draw, **strategies):
    """argv fragments for at most three of the given flags, so that one
    refusing value does not hide what the others do."""
    chosen = draw(st.lists(st.sampled_from(sorted(strategies)), max_size=3,
                           unique=True))
    return [tok for flag in chosen
            for tok in (f"--{flag.replace('_', '-')}",
                        draw(strategies[flag]))]


# Complete spectrum command lines, which the drawn flags then override:
# none (the defaults), the README EC point and an SQF oscillator.
SPECTRUM_BASES = [
    [],
    ["--mechanism", "ec", "--eta0", "0.1", "--theta0", "0.1", "--alpha", "1",
     "--beta", "1", "--e-ref", "10", "--spring-k", "1"],
    ["--mechanism", "sqf", "--eps", "1", "--eta0", "0.1", "--theta0", "0.1",
     "--spring-k", "1"],
]


@st.composite
def config_document(draw):
    """A JSON config: an object of known keys (their values drawn as
    numbers, or as strings or null), maybe with an unknown key, or a
    document that is no object at all."""
    known = {key: (strategy if key == "mechanism" else
                   strategy.map(float) | st.sampled_from(["1", None, True]))
             for key, strategy in spectrum_values().items() if key != "eps"}
    doc = draw(st.fixed_dictionaries({}, optional={
        **known, "mass": st.floats(-1.0, 3.0)}))
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["bogus", "alpha_exp", "Eta0"]))] = 1.0
    return draw(st.just(doc) | st.just(doc) | st.just(doc)
                | st.sampled_from([[doc], 3, "ec", None]))


@BOUNDARY_SETTINGS
@given(base=st.sampled_from(SPECTRUM_BASES),
       config=st.none() | st.none() | config_document(),
       extra=few_flags(**spectrum_values(), n=level_range(),
                       mphi=level_range(), n_alpha=level_range(),
                       n_beta=level_range()))
def test_spectrum_runs_or_refuses(tmp_path_factory, base, config, extra):
    argv = ["spectrum", *base, *extra]
    if config is not None:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    out = run(argv)
    if out is not None:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["mechanism", "n", "m_phi", "n_alpha", "n_beta",
                          "energy", "method", "residual"]
        assert rows
        assert all(math.isfinite(float(row[5])) and
                   math.isfinite(float(row[7])) for row in rows)
