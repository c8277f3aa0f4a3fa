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
checks the same argv on every run, and ``commutators`` also runs at the
n_trunc cap on every run: accepted at 119 and 120, refused at 121.
"""

import csv
import io
import json
import math

import pytest
from conftest import assert_refused, run_cli, strict_json

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncqm.cli import MAX_ROWS  # noqa: E402
from ncqm.fractional import GL_MAX_STEPS  # noqa: E402

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
    code, out, err = run_cli(argv)
    if code == 2:
        assert_refused(code, out, err)
        return None
    assert code == 0, (argv, code, err)
    return out


@BOUNDARY_SETTINGS
@given(theta=real_text(), eta=real_text(),
       extra=flags(hbar=real_text(), n_trunc=count_text(119, 120, 121)))
@example(theta="0.1", eta="0.05", extra=["--n-trunc", "119"])
@example(theta="0.1", eta="0.05", extra=["--n-trunc", "120"])
@example(theta="0.1", eta="0.05", extra=["--n-trunc", "121"])
def test_commutators_runs_or_refuses(theta, eta, extra):
    # past the cap of 120 the truncation is refused; below it strengths
    # up to 1 at the default hbar run
    out = run(["commutators", "--theta", theta, "--eta", eta, *extra])
    chosen = dict(zip(extra[::2], extra[1::2]))
    n_trunc = int(chosen.get("--n-trunc", "30"))
    if n_trunc > 120:
        assert out is None
    elif (n_trunc >= 4 and "--hbar" not in chosen
          and max(abs(float(theta)), abs(float(eta))) <= 1.0):
        assert out is not None
    if out is not None:
        entries = strict_json(out)
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


FRACTIONAL_OPS = ["caputo_exp", "half_derivative_x", "gl_half_derivative_x",
                  "mittag_leffler", "plane_wave"]


def list_text(element):
    """A comma-separated list of one to three items."""
    return st.lists(element, min_size=1, max_size=3).map(",".join)


@st.composite
def gl_grid(draw):
    """``--step`` and ``--x`` of a Grünwald-Letnikov table: a step, mostly
    positive, and points at most 1e4 steps from the terminal at 0 (some
    below it), or now and then past GL_MAX_STEPS steps."""
    step = draw(positive_text())
    within = st.floats(-2.0, 1e4)
    steps = draw(st.lists(within | within | within
                          | st.floats(GL_MAX_STEPS + 1.0, 1e20),
                          min_size=1, max_size=3))
    return ["--step", step,
            "--x", ",".join(repr(float(step) * k) for k in steps)]


@settings(BOUNDARY_SETTINGS, max_examples=200)
@given(op=st.sampled_from(FRACTIONAL_OPS),
       order=positive_text() | st.floats(0.0, 2.0).map(repr),
       ml_beta=real_text() | st.floats(-172.0, -170.0).map(repr),
       points=list_text(positive_text()), grid=gl_grid())
def test_fractional_runs_or_refuses(op, order, ml_beta, points, grid):
    # --order also comes from (0, 2), where the Caputo and Mittag-Leffler
    # tables run, and --ml-beta from the band around -171, where Gamma is
    # subnormal; the GL table takes the drawn grid instead of the flags
    argv = ["fractional", "--op", op]
    if op == "gl_half_derivative_x":
        argv += grid
    else:
        argv += ["--order", order, "--ml-beta", ml_beta, "--x", points]
    out = run(argv)
    if out is not None:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["operator", "order", "x", "value",
                          "reference_or_imag"]
        assert rows
        assert all(row[0] == op for row in rows)
        assert all(math.isfinite(float(v)) for row in rows
                   for v in row[1:] if v)


def wavefunction_values():
    """The wavefunction parameter flags: the spectrum ones but --eps."""
    values = spectrum_values()
    del values["eps"]
    return values


def level_text():
    """An integer level: small (negatives too), on either side of the
    n limit (10^6) and of m_phi = 314, where the amplitude leaves the
    double range, or far past them."""
    return st.one_of(st.integers(-3, 12),
                     st.sampled_from([313, 314, 315, 10 ** 6, 10 ** 6 + 1]),
                     st.integers(316, 10 ** 20)).map(str)


@BOUNDARY_SETTINGS
@given(base=st.sampled_from([[], SPECTRUM_BASES[1], SPECTRUM_BASES[1]]),
       config=st.none() | st.none() | config_document(),
       params=few_flags(**wavefunction_values()),
       points=st.integers(1, 12).map(str) | st.integers(1, 12).map(str)
       | count_text(),
       sampling=few_flags(n=level_text(), mphi=level_text(),
                          energy=positive_text(), r_max=positive_text()))
def test_wavefunction_runs_or_refuses(tmp_path_factory, base, config, params,
                                      points, sampling):
    # over a bare command line or the README EC point; --points is always
    # drawn, small or past MAX_ROWS, since L_n at n = 10^6 takes about a
    # second on the default 200 points
    argv = ["wavefunction", *base, *params, "--points", points, *sampling]
    if config is not None:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    out = run(argv)
    if out is not None:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert header == ["r", "xi", "R_value", "density"]
        assert rows
        assert all(math.isfinite(float(v)) for row in rows for v in row)
