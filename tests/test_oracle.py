import logging
import math
import warnings

import numpy as np
import pytest

from ncqm import oracle
from ncqm.algebra import build_heisenberg_rep
from ncqm.errors import ConvergenceError, GridError, ValidationError
from ncqm.oracle import (fock_matrix_eigensolve, radial_fd_eigensolve,
                         self_consistent_wrap)
from ncqm.params import Mechanism, ModelParams, PhysicalConstants
from ncqm.spectra import (QuantumNumbers, ec_free_energy_closed,
                          ec_quantization_residual, ec_solve_energy)
from ncqm.verify import ROOT_VS_ORACLE_TOL


class TestRadialFd:
    def test_commutative_levels(self):
        vals = radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, 2000), 3)
        assert np.allclose(vals, [1.0, 3.0, 5.0], rtol=1e-6)

    def test_ground_state_m0(self):
        vals = radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, 1000), 1)
        assert vals[0] == pytest.approx(1.0, rel=1e-8)

    def test_field_shift_pattern(self):
        # m_phi = 1, B = 0.1: levels 2n + 2 - 0.1
        vals = radial_fd_eigensolve(1.0, 0.1, 1.0, 1, (9.0, 1500), 3)
        assert np.allclose(vals, [1.9, 3.9, 5.9], rtol=1e-7)

    def test_negative_m_phi_branch(self):
        vals = radial_fd_eigensolve(1.0, 0.1, 1.0, -1, (9.0, 1500), 2)
        assert np.allclose(vals, [2.1, 4.1], rtol=1e-7)

    def test_grid_refinement_second_order(self):
        errs = []
        for pts in (600, 1200, 2400):
            e0 = radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, pts), 1,
                                      richardson=False)[0]
            errs.append(abs(e0 - 1.0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_quantization_condition_satisfied(self):
        # oracle levels at frozen coefficients satisfy the condition
        m_star, b, k = 0.9, 0.15, 1.3
        hbar = 1.0
        for m_phi in (0, 1, 2):
            levels = radial_fd_eigensolve(m_star, b, k, m_phi, (9.0, 2000), 3,
                                          hbar=hbar)
            for n, energy in enumerate(levels):
                lhs = hbar / math.sqrt(m_star) * (2 * n + m_phi + 1)
                rhs = (energy + m_phi * hbar * b) / math.sqrt(k)
                assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_boundary_decay_guard(self):
        with pytest.raises(GridError):
            radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (2.0, 1000), 1)

    def test_points_guard(self):
        with pytest.raises(GridError):
            radial_fd_eigensolve(1.0, 0.0, 1.0, 0, (9.0, 400), 1)

    @pytest.mark.parametrize("m_star,b,k,hbar,r_max,count", [
        (1.0, math.nan, 1.0, 1.0, 9.0, 2),
        (1.0, math.inf, 1.0, 1.0, 9.0, 1),
        (1.0, 0.0, 1.0, 1.0, 9.0, 0),
        (1.0, 0.0, 1.0, 1.0, 9.0, -1),
        (1.0, 0.0, 1.0, 1.0, 9.0, 1001),
        (1.0, 0.0, 1.0, 0.0, 9.0, 1),
        (1.0, 0.0, 1.0, -1.0, 9.0, 1),
        (1.0, 0.0, 1.0, math.nan, 9.0, 1),
        (1.0, 0.0, 1.0, 1.0, math.nan, 1),
        (1.0, 0.0, 1.0, 1.0, math.inf, 1),
        (1.0, 0.0, 1.0, 1.0, -9.0, 1),
        (math.nan, 0.0, 1.0, 1.0, 9.0, 1),
        (math.inf, 0.0, 1.0, 1.0, 9.0, 1),
        (-1.0, 0.0, 1.0, 1.0, 9.0, 1),
        (1.0, 0.0, math.inf, 1.0, 9.0, 1),
        (1.0, 0.0, 0.0, 1.0, 9.0, 1),
    ])
    def test_bad_input_raises_validation_error(self, m_star, b, k, hbar,
                                               r_max, count):
        with pytest.raises(ValidationError):
            radial_fd_eigensolve(m_star, b, k, 0, (r_max, 1000), count,
                                 hbar=hbar)


def shell_hamiltonian(n_trunc, m_star, b, k):
    """Sparse H and L_z of the Fock oracle at the natural frequency."""
    rep = build_heisenberg_rep(n_trunc, PhysicalConstants(mass=m_star),
                               ref_frequency=math.sqrt(k / m_star))
    lz = rep.x @ rep.py - rep.y @ rep.px
    ham = ((rep.px @ rep.px + rep.py @ rep.py) / (2.0 * m_star) - b * lz
           + 0.5 * k * (rep.x @ rep.x + rep.y @ rep.y))
    return ham, lz


class TestFockOracle:
    def test_commutative_degeneracies(self):
        c = PhysicalConstants()
        vals = fock_matrix_eigensolve(20, 1.0, 0.0, 1.0, c, 10)
        assert np.allclose(vals, [1, 2, 2, 3, 3, 3, 4, 4, 4, 4], atol=1e-10)

    def test_field_splitting(self):
        c = PhysicalConstants()
        vals, labels = fock_matrix_eigensolve(20, 1.0, 0.1, 1.0, c, 6,
                                              with_labels=True)
        assert np.allclose(vals, [1.0, 1.9, 2.1, 2.8, 3.0, 3.2], atol=1e-9)
        assert list(labels) == [0, 1, -1, 2, 0, -2]

    def test_field_reversal_relabels(self):
        c = PhysicalConstants()
        up, lab_up = fock_matrix_eigensolve(20, 1.0, 0.2, 1.0, c, 8,
                                            with_labels=True)
        dn, lab_dn = fock_matrix_eigensolve(20, 1.0, -0.2, 1.0, c, 8,
                                            with_labels=True)
        assert np.allclose(up, dn, atol=1e-9)
        assert list(lab_up) == [-m for m in lab_dn]

    def test_matches_rearranged_quantization_formula(self):
        # E = hbar sqrt(K/m*) (2n + m + 1) - m hbar B for labeled levels
        c = PhysicalConstants()
        m_star, b, k = 0.8, 0.12, 1.4
        omega = math.sqrt(k / m_star)
        vals, labels = fock_matrix_eigensolve(22, m_star, b, k, c, 12,
                                              with_labels=True)
        seen = {}
        for energy, m in zip(vals, labels):
            n = seen.get(m, 0)
            expected = c.hbar * omega * (2 * n + abs(m) + 1) \
                - m * c.hbar * b
            assert energy == pytest.approx(expected, rel=1e-6)
            seen[m] = n + 1

    def test_agrees_with_radial_oracle_on_bk_grid(self):
        # ten-point (B, K) grid, lowest six levels from each oracle
        c = PhysicalConstants()
        rng = np.random.default_rng(31)
        for _ in range(10):
            b = rng.uniform(0.0, 0.3)
            k = rng.uniform(0.5, 2.0)
            fock = fock_matrix_eigensolve(22, 1.0, b, k, c, 6)
            radial = sorted(
                e for m_phi in range(-3, 4)
                for e in radial_fd_eigensolve(1.0, b, k, m_phi, (10.0, 1500),
                                              3))[:6]
            assert np.allclose(fock, radial, rtol=1e-6)

    @pytest.mark.parametrize("b, count", [(0.4, 128), (0.0, 276),
                                          (0.1234567, 200)])
    def test_levels_are_shell_eigenpairs(self, b, count):
        # hbar = m* = K = 1 (omega = 1): every (E, m) is a joint eigenpair
        # of H and L_z on a shell N with E = N + 1 - B m, |m| <= N, N - m
        # even, and the values are the lowest count levels of the closed
        # form (at a rational B/omega the shells are exactly degenerate)
        n_trunc = 24
        vals, labels = fock_matrix_eigensolve(
            n_trunc, 1.0, b, 1.0, PhysicalConstants(), count,
            with_labels=True)
        assert len(vals) == count
        closed = sorted(n_q + 1 - b * m for n_q in range(2 * n_trunc)
                        for m in range(-n_q, n_q + 1, 2))
        np.testing.assert_allclose(vals, closed[:count], rtol=0, atol=1e-9)
        ham, lz = shell_hamiltonian(n_trunc, 1.0, b, 1.0)
        for energy, m in zip(vals, labels):
            quanta = energy + b * m - 1.0
            n_q = round(quanta)
            assert abs(quanta - n_q) <= 1e-9
            assert abs(m) <= n_q and (n_q - m) % 2 == 0
            shell = np.arange(n_q + 1) * (n_trunc - 1) + n_q
            m_hbar, vecs = np.linalg.eigh(lz[shell][:, shell].toarray())
            j = np.argmin(np.abs(m_hbar - m))
            assert abs(m_hbar[j] - m) <= 1e-9
            h = ham[shell][:, shell].toarray()
            assert np.linalg.norm(h @ vecs[:, j]
                                  - energy * vecs[:, j]) <= 1e-9

    def test_count_beyond_certified_window(self):
        # (24, B/omega = 0.4): shells N >= 23 reach down to 24 - 0.4*23,
        # below which the complete shells hold 128 levels
        c = PhysicalConstants()
        assert len(fock_matrix_eigensolve(24, 1.0, 0.4, 1.0, c, 128)) == 128
        with pytest.raises(ValidationError, match="certified window"):
            fock_matrix_eigensolve(24, 1.0, 0.4, 1.0, c, 129)
        with pytest.raises(ValidationError, match="certified window"):
            fock_matrix_eigensolve(24, 1.0, 1.0, 1.0, c, 1)

    @pytest.mark.parametrize("m_star,b,k,hbar,count", [
        (1.0, 0.0, 1.0, 1.0, -3),
        (1.0, 0.0, 1.0, 1.0, 0),
        (math.inf, 0.0, 1.0, 1.0, 1),
        (math.nan, 0.0, 1.0, 1.0, 1),
        (0.0, 0.0, 1.0, 1.0, 1),
        (1.0, 0.0, math.inf, 1.0, 1),
        (1.0, 0.0, math.nan, 1.0, 1),
        (1.0, 0.0, -1.0, 1.0, 1),
        (1.0, math.nan, 1.0, 1.0, 1),
        (1.0, math.inf, 1.0, 1.0, 1),
        (1.0, 0.0, 1.0, 0.0, 1),
        (1.0, 0.0, 1.0, math.inf, 1),
        (1.0, 0.0, 1.0, math.nan, 1),
    ])
    def test_bad_input_raises_validation_error(self, m_star, b, k, hbar,
                                               count):
        # count -3 once returned 273 levels, count 0 an empty array,
        # m* = inf a ZeroDivisionError, and K = inf or a NaN B an
        # "outside the certified window (0 levels)"; a bad hbar is refused
        # by PhysicalConstants before the solve starts
        with pytest.raises(ValidationError) as info:
            fock_matrix_eigensolve(24, m_star, b, k,
                                   PhysicalConstants(hbar=hbar), count)
        assert "certified window" not in str(info.value)

    def test_truncation_guards(self):
        c = PhysicalConstants()
        with pytest.raises(ValidationError):
            fock_matrix_eigensolve(10, 1.0, 0.0, 1.0, c, 3)
        with pytest.raises(ValidationError):
            fock_matrix_eigensolve(20, 1.0, 0.0, 1.0, c, 10000)


def count_frozen_solves(monkeypatch) -> list:
    """Record the energy of every frozen solve the oracle makes."""
    solves = []

    def counted(p, qn, energy, solver):
        solves.append(energy)
        return frozen_level(p, qn, energy, solver)

    frozen_level = oracle._frozen_level
    monkeypatch.setattr(oracle, "_frozen_level", counted)
    return solves


class TestSelfConsistent:
    def test_commutative_immediate(self):
        # the Fock level is the scale 3 to the last bit, where the secant
        # would have no second starting point
        p = ModelParams(eta0=0.0, theta0=0.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        for solver in ("radial", "fock"):
            val = self_consistent_wrap(solver, p, QuantumNumbers(n=1,
                                                                 m_phi=0),
                                       tol=1e-9)
            assert val == pytest.approx(3.0, rel=1e-9)

    def test_oscillator_matches_root_finder(self):
        p = ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=10.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        for (n, m_phi) in ((0, 0), (0, 1), (1, 1)):
            qn = QuantumNumbers(n=n, m_phi=m_phi)
            root = ec_solve_energy(qn, p, (1e-4, 1e3), tol=1e-13).energy
            sc = self_consistent_wrap("radial", p, qn, tol=1e-9)
            assert sc == pytest.approx(root, rel=1e-6)

    def test_free_particle_matches_closed_form(self):
        p = ModelParams(eta0=1.0, theta0=0.0, alpha_exp=2.0, beta_exp=2.0,
                        e_ref=1.0, mechanism=Mechanism.EC)
        for (n, m_phi) in ((0, 0), (1, 0)):
            qn = QuantumNumbers(n=n, m_phi=m_phi)
            closed = ec_free_energy_closed(qn, p)
            sc = self_consistent_wrap("radial", p, qn, tol=1e-9)
            assert sc == pytest.approx(closed, rel=1e-6)

    def test_fock_route(self, monkeypatch):
        p = ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=10.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        qn = QuantumNumbers(n=0, m_phi=1)
        root = ec_solve_energy(qn, p, (1e-4, 1e3), tol=1e-13).energy
        solves = count_frozen_solves(monkeypatch)
        sc = self_consistent_wrap("fock", p, qn, tol=1e-8)
        assert sc == pytest.approx(root, rel=1e-6)
        assert len(solves) <= 5

    @pytest.mark.parametrize("params,qn", [
        (ModelParams(eta0=1.0, alpha_exp=2.0, beta_exp=2.0, e_ref=1.0,
                     mechanism=Mechanism.EC), QuantumNumbers(n=0, m_phi=0)),
        (ModelParams(eta0=0.1, theta0=0.5, alpha_exp=3.0, beta_exp=3.0,
                     e_ref=1.0, mechanism=Mechanism.EC,
                     constants=PhysicalConstants(spring_k=1.0)),
         QuantumNumbers(n=1, m_phi=0)),
    ])
    def test_fock_level_without_certified_window(self, params, qn):
        # |B_h| >= omega_h leaves the frozen Hamiltonian unbounded below:
        # the free particle at every energy, the rootless oscillator at
        # its third frozen energy; the error once read "count must be >= 1"
        with pytest.raises(ConvergenceError, match="unbounded below") as info:
            self_consistent_wrap("fock", params, qn)
        assert isinstance(info.value.__cause__, ValidationError)
        assert "unbounded below" in str(info.value.__cause__)

    def test_repulsive_free_particle_takes_log_secant(self, caplog):
        # the free-particle level is a power of E, linear in ln E, so the
        # secant on ln E reaches it in few frozen solves
        p = ModelParams(eta0=1.0, theta0=0.0, alpha_exp=2.0, beta_exp=2.0,
                        e_ref=1.0, mechanism=Mechanism.EC)
        qn = QuantumNumbers(n=0, m_phi=0)
        with caplog.at_level(logging.DEBUG, logger="ncqm.oracle"):
            sc = self_consistent_wrap("radial", p, qn, tol=1e-9)
        assert sc == pytest.approx(ec_free_energy_closed(qn, p), rel=1e-6)
        (record,) = [r for r in caplog.records if r.name == "ncqm.oracle"]
        message = record.getMessage()
        solves = int(message.split(" frozen solves")[0].rsplit(" ", 1)[1])
        assert solves <= 6

    @pytest.mark.parametrize("alpha,n,m_phi", [(1.5, 0, 0), (1.5, 0, 1),
                                               (0.75, 0, 1)])
    def test_free_root_decades_from_the_scale(self, alpha, n, m_phi):
        # closed forms 1.1e4, 3.2e4 and 1.2e-7 lie more than four decades
        # from the scale the secant on ln E starts at
        p = ModelParams(eta0=0.3, alpha_exp=alpha, beta_exp=alpha, e_ref=5.0,
                        mechanism=Mechanism.EC)
        qn = QuantumNumbers(n=n, m_phi=m_phi)
        assert self_consistent_wrap("radial", p, qn, tol=1e-9) == \
            pytest.approx(ec_free_energy_closed(qn, p),
                          rel=ROOT_VS_ORACLE_TOL)

    @pytest.mark.parametrize("alpha,eta0,m_phi,reason", [
        (2.0, 1.0, 3, "no bound state"),  # 1 + (1 - sqrt 2) 3 < 0
        (1.001, 1.0, 0, "range error"),   # root beyond float range
        (0.999, 1.0, 0, "frozen K_h"),    # root below it, K_h -> 0
    ])
    def test_no_representable_level_raises(self, alpha, eta0, m_phi, reason):
        p = ModelParams(eta0=eta0, alpha_exp=alpha, beta_exp=alpha,
                        e_ref=1.0, mechanism=Mechanism.EC)
        with pytest.raises(ConvergenceError, match=reason):
            self_consistent_wrap("radial", p, QuantumNumbers(m_phi=m_phi),
                                 tol=1e-9)

    def test_debug_record_of_a_secant_solve(self, caplog):
        p = ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=10.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        with caplog.at_level(logging.DEBUG, logger="ncqm.oracle"):
            self_consistent_wrap("radial", p, QuantumNumbers(n=1, m_phi=1))
        (record,) = [r for r in caplog.records if r.name == "ncqm.oracle"]
        message = record.getMessage()
        solves = int(message.split(" frozen solves")[0].rsplit(" ", 1)[1])
        assert solves <= 5
        residual = float(message.rsplit(" ", 1)[1])
        assert residual <= 1e-8

    @pytest.mark.parametrize("solver,tol", [
        ("matrix", 1e-8), ("Radial", 1e-8), ("radial", 0.0),
        ("radial", -1e-8), ("fock", math.nan), ("fock", math.inf),
    ])
    def test_bad_solver_or_tol_raises_before_solving(self, monkeypatch,
                                                     solver, tol):
        # frozen-solve failures end the secant as a ConvergenceError, so a
        # bad argument must be refused before the first frozen solve
        p = ModelParams(eta0=0.1, theta0=0.1, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        solves = count_frozen_solves(monkeypatch)
        with pytest.raises(ValidationError):
            self_consistent_wrap(solver, p, QuantumNumbers(), tol=tol)
        assert solves == []

    def test_unit_levels_solved_once_per_level(self, monkeypatch):
        # the frozen radial level rescales one unit-level solve per
        # (|m_phi|, n): 16 levels on two parameter points take at most
        # 16 finite-volume solves, whatever the frozen energies
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return radial_fd_eigensolve(*args, **kwargs)

        oracle._unit_radial_levels.cache_clear()
        monkeypatch.setattr(oracle, "radial_fd_eigensolve", counted)
        for p in (ModelParams(eta0=0.1, theta0=0.1, alpha_exp=1.0,
                              beta_exp=1.0, e_ref=10.0,
                              mechanism=Mechanism.EC,
                              constants=PhysicalConstants(spring_k=1.0)),
                  ModelParams(eta0=0.17, theta0=0.16, alpha_exp=1.07,
                              beta_exp=0.79, e_ref=16.5,
                              mechanism=Mechanism.EC,
                              constants=PhysicalConstants(spring_k=1.13))):
            for n in range(4):
                for m_phi in range(4):
                    qn = QuantumNumbers(n=n, m_phi=m_phi)
                    root = ec_solve_energy(qn, p, (1e-4, 1e3),
                                           tol=1e-13).energy
                    assert self_consistent_wrap("radial", p, qn) == \
                        pytest.approx(root, rel=1e-6)
        assert 0 < len(calls) <= 16

    def test_unit_level_debug_record(self, caplog):
        oracle._unit_radial_levels.cache_clear()
        p = ModelParams(eta0=0.0, theta0=0.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        with caplog.at_level(logging.DEBUG, logger="ncqm.oracle"):
            for _ in range(2):
                self_consistent_wrap("radial", p, QuantumNumbers(n=1,
                                                                 m_phi=2))
        unit = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("unit radial level")]
        assert len(unit) == 1  # the second solve reuses the cached level
        assert "(n=1, |m_phi|=2)" in unit[0]
        assert float(unit[0].split("level ")[2].split(",")[0]) == \
            pytest.approx(5.0, rel=1e-9)  # 2n + |m_phi| + 1

    def test_rootless_oscillator_level_raises_without_overflow(self):
        # the level has no self-consistent root and its frozen coefficients
        # grow as E^6 along the secant, up to inf without a numpy overflow
        p = ModelParams(eta0=0.1, theta0=0.5, alpha_exp=3.0, beta_exp=3.0,
                        e_ref=1.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConvergenceError):
                self_consistent_wrap("radial", p, QuantumNumbers(n=1,
                                                                 m_phi=0))

    def test_residual_vanishes_at_fixed_point(self):
        p = ModelParams(eta0=0.2, theta0=0.05, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=5.0, mechanism=Mechanism.EC,
                        constants=PhysicalConstants(spring_k=1.0))
        qn = QuantumNumbers(n=0, m_phi=0)
        sc = self_consistent_wrap("radial", p, qn, tol=1e-10)
        assert abs(ec_quantization_residual(sc, qn, p)) < 1e-7
