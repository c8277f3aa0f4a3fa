"""Property tests of the root kernel (geometric scan + Brent refinement).

Parameters are drawn from the ranges of the benchmark pool, in which every
default-table level is bound. Examples are derandomized so that the suite
checks the same draws on every run.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncqm.params import Mechanism, ModelParams, PhysicalConstants  # noqa: E402
from ncqm.spectra import (SCAN_PER_DECADE, QuantumNumbers,  # noqa: E402
                          ec_default_bracket, ec_free_energy_closed,
                          ec_quantization_residual, ec_solve_energy)

TOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None,
                             derandomize=True, database=None)

strength = st.floats(0.05, 0.2)
exponent = st.floats(0.75, 1.25)
level_index = st.integers(0, 3)


@st.composite
def ec_oscillators(draw):
    p = ModelParams(eta0=draw(strength), theta0=draw(strength),
                    alpha_exp=draw(exponent), beta_exp=draw(exponent),
                    e_ref=draw(st.floats(5.0, 20.0)), mechanism=Mechanism.EC,
                    constants=PhysicalConstants(
                        spring_k=draw(st.floats(0.5, 2.0))))
    return p, QuantumNumbers(n=draw(level_index), m_phi=draw(level_index))


def scan_grid(bracket):
    """The geometric grid ec_solve_energy scans, rebuilt independently."""
    lo, hi = bracket
    n_pts = max(2, int(math.log10(hi / lo) * SCAN_PER_DECADE))
    return lo * ((hi / lo) ** (1.0 / n_pts)) ** np.arange(n_pts + 1)


@PROPERTY_SETTINGS
@given(ec_oscillators())
def test_root_is_the_first_sign_change_within_tol(case):
    p, qn = case
    bracket = ec_default_bracket(qn, p)
    res = ec_solve_energy(qn, p, bracket, tol=TOL)
    energy = res.energy

    def f(e):
        return ec_quantization_residual(e, qn, p)

    assert abs(res.residual) <= TOL
    assert abs(f(energy)) <= TOL
    assert f(energy * (1.0 - 1e-9)) * f(energy * (1.0 + 1e-9)) < 0
    below = np.array([f(e) for e in scan_grid(bracket) if e < energy])
    assert len(below) > 0
    assert np.all(below != 0.0)
    assert np.all(np.sign(below) == np.sign(below[0]))


@PROPERTY_SETTINGS
@given(eta0=st.floats(0.05, 2.0), alpha=st.floats(1.5, 3.0),
       e_ref=st.floats(0.5, 20.0), n=level_index, m_phi=level_index)
def test_free_closed_form_equals_root(eta0, alpha, e_ref, n, m_phi):
    # the level bracket 2n + (1 - sqrt 2) m_phi + 1 must stay positive
    assume(2 * n + (1.0 - math.sqrt(2.0)) * m_phi + 1.0 > 0)
    p = ModelParams(eta0=eta0, theta0=0.1, alpha_exp=alpha, e_ref=e_ref,
                    mechanism=Mechanism.EC)
    qn = QuantumNumbers(n=n, m_phi=m_phi)
    closed = ec_free_energy_closed(qn, p)
    root = ec_solve_energy(qn, p, (closed / 1e4, closed * 1e4), tol=TOL)
    assert root.energy == pytest.approx(closed, rel=1e-9)
