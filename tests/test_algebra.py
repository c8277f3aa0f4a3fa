import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ncqm import algebra, verify
from ncqm.algebra import (DiagonalOperator, FockRep, ResidualEntry,
                          alternative_maps, bogoliubov_frequency,
                          build_heisenberg_rep, commutator_residuals,
                          residual_report_json, sw_forward, sw_inverse)
from ncqm.errors import ValidationError
from ncqm.params import (Mechanism, ModelParams, PhysicalConstants,
                         effective_coefficients, effective_planck)
from ncqm.verify import SW_PAIRS


def comm(a, b):
    return a @ b - b @ a


def interior(rep: FockRep, m: DiagonalOperator) -> np.ndarray:
    mask = rep.interior_mask()
    return m.toarray()[np.ix_(mask, mask)]


def csr(op: DiagonalOperator) -> sparse.csr_array:
    """The operator's entries as a canonical CSR array (zeros dropped)."""
    dim = op.shape[0]
    diagonals = [values[max(0, -o):min(dim, dim - o)]
                 for o, values in zip(op.offsets.tolist(), op.data)]
    out = sparse.diags_array(diagonals, offsets=op.offsets.tolist(),
                             shape=op.shape, format="csr")
    out.eliminate_zeros()
    out.sort_indices()
    return out


def same_entries(got: sparse.csr_array, want: sparse.csr_array) -> bool:
    """Same stored entries, bit for bit (a signed zero counts as a change)."""
    got, want = got.copy(), want.copy()
    for m in (got, want):
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
    return got.shape == want.shape and all(
        getattr(got, name).tobytes() == getattr(want, name).tobytes()
        for name in ("indptr", "indices", "data"))


def kron_reference(n_trunc, c, ref_frequency):
    """(x, y, p_x, p_y) as Kronecker products of the single-mode ladder
    quadratures with the identity: the construction the diagonals of
    build_heisenberg_rep must reproduce bit for bit."""
    a = sparse.diags_array(np.sqrt(np.arange(1.0, n_trunc)), offsets=1,
                           format="csr", dtype=complex)
    eye = sparse.eye_array(n_trunc, dtype=complex, format="csr")
    q = math.sqrt(c.hbar / (2.0 * c.mass * ref_frequency)) * (a + a.T)
    p = 1j * math.sqrt(c.mass * ref_frequency * c.hbar / 2.0) * (a.T - a)
    return (sparse.kron(q, eye, format="csr"), sparse.kron(eye, q, format="csr"),
            sparse.kron(p, eye, format="csr"), sparse.kron(eye, p, format="csr"))


def residuals_reference(mapped):
    """commutator_residuals by forming each commutator of the operators'
    entries as CSR arrays, slicing its interior block out with np.ix_ and
    subtracting a sparse identity."""
    rep = mapped.rep
    hbar_eff = effective_planck(mapped.theta, mapped.eta,
                                PhysicalConstants(hbar=rep.hbar, mass=rep.mass))
    keep = np.flatnonzero(rep.interior_mask())
    eye = sparse.eye_array(keep.size, dtype=complex, format="csr")
    m = mapped
    out = []
    for name, coeff, a, b in (("[x,y]", m.theta, m.x, m.y),
                              ("[px,py]", m.eta, m.px, m.py),
                              ("[x,px]", hbar_eff, m.x, m.px),
                              ("[y,py]", hbar_eff, m.y, m.py),
                              ("[x,py]", 0.0, m.x, m.py),
                              ("[y,px]", 0.0, m.y, m.px)):
        block = comm(csr(a), csr(b))[np.ix_(keep, keep)]
        out.append(ResidualEntry(
            commutator=name, target=complex(0.0, coeff),
            measured=complex(block.diagonal().sum() / keep.size),
            max_residual=float(abs(block - 1j * coeff * eye).max())))
    return out


@pytest.fixture(scope="module")
def rep():
    return build_heisenberg_rep(20, PhysicalConstants())


class TestHeisenbergRep:
    def test_minimum_truncation(self):
        with pytest.raises(ValidationError):
            build_heisenberg_rep(3, PhysicalConstants())

    def test_truncation_cap(self):
        with pytest.raises(ValidationError):
            build_heisenberg_rep(121, PhysicalConstants())

    @pytest.mark.parametrize("ref_frequency", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ref_frequency(self, ref_frequency):
        # NaN once gave NaN operators and inf a RuntimeWarning
        with pytest.raises(ValidationError, match="ref_frequency must be"):
            build_heisenberg_rep(8, PhysicalConstants(),
                                 ref_frequency=ref_frequency)

    @pytest.mark.parametrize("hbar", [1e-300, 1e-162, 5e-324, 1e160, 1e300])
    def test_hbar_squared_outside_float_range(self, hbar):
        # PhysicalConstants refuses it: hbar^2 underflowed to 0
        # (ZeroDivisionError in effective_planck) or overflowed
        # (OverflowError from hbar ** 2) downstream
        with pytest.raises(ValidationError, match="squares to"):
            build_heisenberg_rep(8, PhysicalConstants(hbar=hbar))

    @pytest.mark.parametrize("hbar", [1e-150, 1e150])
    def test_hbar_squared_inside_float_range(self, hbar):
        rep = build_heisenberg_rep(8, PhysicalConstants(hbar=hbar))
        entries = commutator_residuals(sw_forward(rep, 0.0, 0.0))
        assert all(math.isfinite(e.max_residual) for e in entries)

    def test_operators_are_sparse(self, rep):
        # each row of a quadrature-times-identity holds at most two entries,
        # on the diagonals +-n_trunc (first mode) or +-1 (second mode)
        for m, stride in ((rep.x, 20), (rep.y, 1), (rep.px, 20),
                          (rep.py, 1)):
            assert m.offsets.tolist() == [-stride, stride]
            assert m.data.shape == (2, 400)
            assert np.count_nonzero(m.data) == 2 * 20 * 19

    def test_debug_record(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="ncqm.algebra"):
            build_heisenberg_rep(12, PhysicalConstants())
        (record,) = caplog.records
        msg = record.getMessage()
        assert "n_trunc 12, dimension 144" in msg
        assert "nnz per operator [264, 264, 264, 264]" in msg
        assert "operator bytes" in msg

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(n_trunc=st.integers(4, 120),
           hbar=st.floats(math.exp(-3.0), math.exp(3.0)),
           mass=st.floats(math.exp(-3.0), math.exp(3.0)),
           ref_frequency=st.floats(math.exp(-3.0), math.exp(3.0)))
    def test_matches_kronecker_construction(self, n_trunc, hbar, mass,
                                            ref_frequency):
        c = PhysicalConstants(hbar=hbar, mass=mass)
        r = build_heisenberg_rep(n_trunc, c, ref_frequency)
        for got, want in zip((r.x, r.y, r.px, r.py),
                             kron_reference(n_trunc, c, ref_frequency)):
            assert got.dtype == want.dtype
            # every entry, as bytes, so that a signed zero counts as a
            # change; the dense form only where it stays small (n_trunc 30
            # is 13 MB, 120 would be 3.3 GB)
            assert same_entries(csr(got), want)
            if n_trunc <= 30:
                assert got.toarray().tobytes() == want.toarray().tobytes()

    def test_modes_commute_exactly(self, rep):
        assert comm(rep.x, rep.y).abs_max() == 0.0
        assert comm(rep.px, rep.py).abs_max() == 0.0
        assert comm(rep.x, rep.py).abs_max() == 0.0

    def test_canonical_commutator(self):
        rep30 = build_heisenberg_rep(30, PhysicalConstants())
        block = interior(rep30, comm(rep30.x, rep30.px))
        target = 1j * np.eye(block.shape[0])
        assert np.max(np.abs(block - target)) < 1e-12

    def test_scales_with_constants(self):
        c = PhysicalConstants(hbar=3.0, mass=0.5)
        r = build_heisenberg_rep(12, c, ref_frequency=2.0)
        block = interior(r, comm(r.x, r.px))
        assert np.max(np.abs(block - 3.0j * np.eye(block.shape[0]))) < 1e-12


class TestSwForward:
    def test_zero_strengths_identity(self, rep):
        mapped = sw_forward(rep, 0.0, 0.0)
        assert np.array_equal(mapped.x.toarray(), rep.x.toarray())
        assert np.array_equal(mapped.py.toarray(), rep.py.toarray())

    def test_coordinate_commutator(self, rep):
        mapped = sw_forward(rep, 0.25, 0.1)
        block = interior(rep, comm(mapped.x, mapped.y))
        assert np.max(np.abs(block - 0.25j * np.eye(block.shape[0]))) < 1e-12

    def test_effective_planck_commutator(self, rep):
        theta, eta = 0.4, 0.3
        mapped = sw_forward(rep, theta, eta)
        hbar_eff = effective_planck(theta, eta, PhysicalConstants())
        for pair in ((mapped.x, mapped.px), (mapped.y, mapped.py)):
            block = interior(rep, comm(*pair))
            assert np.max(np.abs(block - 1j * hbar_eff
                                 * np.eye(block.shape[0]))) < 1e-12

    def test_random_pairs_all_targets(self, rep):
        rng = np.random.default_rng(42)
        for _ in range(20):
            theta, eta = rng.uniform(0.0, 1.0, size=2)
            entries = commutator_residuals(sw_forward(rep, theta, eta))
            assert max(e.max_residual for e in entries) < 1e-10

    @pytest.mark.parametrize("n_trunc", [8, 16, 30, 60, 120])
    def test_residuals_across_truncations(self, n_trunc):
        r = build_heisenberg_rep(n_trunc, PhysicalConstants())
        entries = commutator_residuals(sw_forward(r, 0.7, 0.9))
        # residuals in units of the target magnitude
        for e in entries:
            scale = max(1.0, abs(e.target))
            assert e.max_residual / scale < 1e-10


class TestSwInverse:
    def test_zero_strengths_identity(self, rep):
        mapped = sw_forward(rep, 0.0, 0.0)
        back = sw_inverse(mapped)
        assert (back["x"] - rep.x).abs_max() == 0.0

    def test_round_trip_exact(self, rep):
        mapped = sw_forward(rep, 0.1, 0.05)
        back = sw_inverse(mapped, exact_k=True)
        for key, ref in (("x", rep.x), ("y", rep.y), ("px", rep.px),
                         ("py", rep.py)):
            assert (back[key] - ref).abs_max() < 1e-12

    def test_round_trip_k1_error_is_zeta(self, rep):
        theta, eta = 0.02, 0.02  # zeta = 1e-4
        zeta = theta * eta / 4.0
        mapped = sw_forward(rep, theta, eta)
        back = sw_inverse(mapped, exact_k=False)
        rel = (back["x"] - rep.x).abs_max() / rep.x.abs_max()
        assert rel == pytest.approx(zeta, rel=1e-9)


class TestAlternativeMaps:
    def test_zero_identity(self, rep):
        mapped = alternative_maps(rep, 0.0, 0.0, "asym_1")
        assert np.array_equal(mapped.x.toarray(), rep.x.toarray())

    @pytest.mark.parametrize("variant", ["asym_1", "asym_2"])
    def test_strength_commutators(self, rep, variant):
        theta, eta = 0.3, 0.45
        mapped = alternative_maps(rep, theta, eta, variant)
        bx = interior(rep, comm(mapped.x, mapped.y))
        bp = interior(rep, comm(mapped.px, mapped.py))
        eye = np.eye(bx.shape[0])
        assert np.max(np.abs(bx - 1j * theta * eye)) < 1e-12
        assert np.max(np.abs(bp - 1j * eta * eye)) < 1e-12

    @pytest.mark.parametrize("variant", ["asym_1", "asym_2"])
    def test_no_planck_shift(self, rep, variant):
        mapped = alternative_maps(rep, 0.3, 0.45, variant)
        for pair in ((mapped.x, mapped.px), (mapped.y, mapped.py)):
            block = interior(rep, comm(*pair))
            assert np.max(np.abs(block - 1j * np.eye(block.shape[0]))) < 1e-12

    def test_difference_from_symmetric_map(self, rep):
        # [x,px] differs between the maps by exactly i hbar theta*eta/4hbar^2
        theta, eta = 0.6, 0.5
        sym = sw_forward(rep, theta, eta)
        asym = alternative_maps(rep, theta, eta, "asym_1")
        diff = interior(rep, comm(sym.x, sym.px) - comm(asym.x, asym.px))
        expected = 1j * theta * eta / 4.0 * np.eye(diff.shape[0])
        assert np.max(np.abs(diff - expected)) < 1e-12

    @pytest.mark.parametrize("theta,eta", [(1e200, 0.1), (0.1, 1e200),
                                           (1e300, 1e300), (math.inf, 0.0),
                                           (0.0, math.nan)])
    @pytest.mark.parametrize("variant", ["sw", "asym_1", "asym_2"])
    def test_overflowing_shift_raises(self, rep, theta, eta, variant):
        # the products of finite entries overflow to inf and NaN
        # residuals; an infinite or NaN strength is refused by name first
        refused = [name for name, value in (("theta", theta), ("eta", eta))
                   if not math.isfinite(value)]
        reason = (rf"{refused[0]} must be in \(-inf, inf\)" if refused
                  else "would overflow")
        with pytest.raises(ValidationError, match=reason):
            if variant == "sw":
                sw_forward(rep, theta, eta)
            else:
                alternative_maps(rep, theta, eta, variant)

    def test_large_finite_shift_is_kept(self, rep):
        entries = commutator_residuals(sw_forward(rep, 1e140, 1e-3))
        assert all(math.isfinite(e.max_residual) for e in entries)

    def test_unknown_variant(self, rep):
        with pytest.raises(ValidationError):
            alternative_maps(rep, 0.1, 0.1, "bogus")


class TestResiduals:
    @pytest.mark.parametrize("n_trunc,hbar,mass", [(4, 1.0, 1.0),
                                                   (12, 3.0, 0.5),
                                                   (30, 1.0, 1.0)])
    @pytest.mark.parametrize("theta,eta", [*SW_PAIRS, (0.0, 0.0),
                                           (-0.4, 0.25), (1e3, -2e2)])
    @pytest.mark.parametrize("variant", ["sw", "asym_1", "asym_2"])
    def test_matches_interior_block_slicing(self, n_trunc, hbar, mass,
                                            theta, eta, variant):
        r = build_heisenberg_rep(n_trunc, PhysicalConstants(hbar=hbar,
                                                            mass=mass))
        mapped = (sw_forward(r, theta, eta) if variant == "sw"
                  else alternative_maps(r, theta, eta, variant))
        assert commutator_residuals(mapped) == residuals_reference(mapped)

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(n_trunc=st.integers(4, 120),
           hbar=st.floats(math.exp(-3.0), math.exp(3.0)),
           mass=st.floats(math.exp(-3.0), math.exp(3.0)),
           theta=st.floats(-1e3, 1e3), eta=st.floats(-2e2, 2e2),
           variant=st.sampled_from(["sw", "asym_1", "asym_2"]))
    def test_commutators_match_csr_products(self, n_trunc, hbar, mass,
                                            theta, eta, variant):
        # products of diagonals sum each entry's terms in the order a CSR
        # product does, so every entry of every commutator is the same
        r = build_heisenberg_rep(n_trunc, PhysicalConstants(hbar=hbar,
                                                            mass=mass))
        m = (sw_forward(r, theta, eta) if variant == "sw"
             else alternative_maps(r, theta, eta, variant))
        for a, b in ((m.x, m.y), (m.px, m.py), (m.x, m.px), (m.y, m.py),
                     (m.x, m.py), (m.y, m.px)):
            assert same_entries(csr(comm(a, b)), comm(csr(a), csr(b)))

    def test_non_finite_residual_raises(self, rep):
        mapped = sw_forward(rep, 0.1, 0.2)
        data = mapped.x.data.copy()
        data[mapped.x.offsets.tolist().index(-1), 2] = math.nan  # x[2, 1]
        x = dataclasses.replace(mapped.x, data=data)
        with pytest.raises(ValidationError, match=r"\[x,y\] residual"):
            commutator_residuals(dataclasses.replace(mapped, x=x))

    @pytest.mark.parametrize("row,raises", [
        (2 * 20 + 3, True),     # (2, 3) -> (2, 5): interior
        (19 * 20 + 3, False),   # (19, 3): the truncation edge
    ])
    def test_one_off_diagonal_nan_in_one_commutator(self, rep, monkeypatch,
                                                    row, raises):
        # the NaN sits only in diagonal +2 of [x,py]: every other entry of
        # every commutator is finite, so only a maximum that keeps NaN
        # sees it, and only where the interior block reads it
        mapped = sw_forward(rep, 0.1, 0.2)
        commutator = algebra._commutator

        def poisoned(a, b):
            comm = commutator(a, b)
            if a is not mapped.x or b is not mapped.py:
                return comm
            data = comm.data.copy()
            data[comm.offsets.tolist().index(2), row] = math.nan
            return dataclasses.replace(comm, data=data)

        monkeypatch.setattr(algebra, "_commutator", poisoned)
        if raises:
            with pytest.raises(ValidationError, match=r"\[x,py\] residual"):
                commutator_residuals(mapped)
        else:
            entries = commutator_residuals(mapped)
            assert max(e.max_residual for e in entries) < 1e-12

    def test_caches_stay_bounded_and_read_only(self, rep):
        verify.run_verification()
        for cache in (algebra._product_plan, algebra._interior_masks):
            info = cache.cache_info()
            assert 0 < info.currsize <= info.maxsize
        product = rep.x @ rep.px  # diagonals -2n, 0 and 2n
        with pytest.raises(ValueError, match="read-only"):
            product.offsets[0] = 0
        centre, on_diag, off_diag = algebra._interior_masks(
            tuple(product.offsets.tolist()), rep.n_trunc)
        for mask in (on_diag, off_diag):
            with pytest.raises(ValueError, match="read-only"):
                mask[0] = True

    def test_identity_map_clean(self, rep):
        entries = commutator_residuals(sw_forward(rep, 0.0, 0.0))
        assert max(e.max_residual for e in entries) < 1e-12

    def test_wrong_target_detected(self, rep):
        # a one-sided map lacks the Planck shift the default target holds
        theta, eta = 0.3, 0.45
        entries = commutator_residuals(
            alternative_maps(rep, theta, eta, "asym_1"))
        by_name = {e.commutator: e for e in entries}
        assert by_name["[x,px]"].max_residual == pytest.approx(
            theta * eta / 4.0, rel=1e-10)
        assert by_name["[x,y]"].max_residual < 1e-12

    def test_measured_matches_effective_planck(self, rep):
        theta, eta = 0.8, 0.9
        entries = commutator_residuals(sw_forward(rep, theta, eta))
        by_name = {e.commutator: e for e in entries}
        formula = effective_planck(theta, eta, PhysicalConstants())
        assert by_name["[x,px]"].measured.imag == pytest.approx(formula,
                                                                abs=1e-12)

    def test_json_report_shape(self, rep):
        text = residual_report_json(commutator_residuals(
            sw_forward(rep, 0.1, 0.2)))
        import json
        doc = json.loads(text)
        assert {d["commutator"] for d in doc} == {
            "[x,y]", "[px,py]", "[x,px]", "[y,py]", "[x,py]", "[y,px]"}
        assert all(set(d) == {"commutator", "target", "measured",
                              "max_residual"} for d in doc)


class TestBogoliubov:
    def test_zero_field(self):
        assert bogoliubov_frequency(1.3, 0.0) == 1.3

    def test_sqf_reference_value(self):
        # compose omega_eps = sqrt(k_e/m) and B_e at unit ratio
        p = ModelParams(eta0=1.0, theta0=1.0, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=1.0, mechanism=Mechanism.SQF)
        c = effective_coefficients(p, 1.0)
        omega_eps = math.sqrt(c.k_e / p.constants.mass)
        omega_big = bogoliubov_frequency(omega_eps, c.b_e)
        assert omega_big == pytest.approx(0.5 * (1.0 + 1.0 / math.sqrt(2.0)),
                                          rel=1e-14)

    def test_power_law_scaling(self):
        p = ModelParams(eta0=1.0, theta0=0.0, alpha_exp=1.0, beta_exp=1.0,
                        e_ref=1.0, mechanism=Mechanism.SQF)
        c1 = effective_coefficients(p, 1.0)
        c2 = effective_coefficients(p, 2.0)
        m = p.constants.mass
        w1 = bogoliubov_frequency(math.sqrt(c1.k_e / m), c1.b_e)
        w2 = bogoliubov_frequency(math.sqrt(c2.k_e / m), c2.b_e)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-14)

    def test_linear_in_each_argument(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            w, b, s = rng.uniform(0.0, 3.0, size=3)
            assert bogoliubov_frequency(s * w, b) == pytest.approx(
                s * bogoliubov_frequency(w, 0.0) + b, rel=1e-14)
