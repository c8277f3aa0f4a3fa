"""Tests of the benchmark's own code: inputs, tracing, statistics, checks."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["spectrum", "oracle"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.make_inputs(workload, 7, 32, 6)
    assert workloads.make_inputs(workload, 7, 32, 6) == first
    assert workloads.make_inputs(workload, 8, 32, 6) != first


def test_spectrum_inputs_always_hold_the_readme_point():
    for seed in range(20):
        inputs = workloads.make_inputs("spectrum", seed, 32, 0)
        assert inputs["points"][0] == 0
        assert len(set(inputs["points"])) == workloads.SPECTRUM_POINTS


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)

    def leaf():                 # 0.5 s of its own
        clock.t += 0.5

    def counted():              # not a frame: its 0.25 s stays in the caller
        clock.t += 0.25

    def inner():                # 1 s own + leaf
        clock.t += 1.0
        leaf_w()

    def outer():                # 2 s own + inner twice + counted
        clock.t += 1.0
        inner_w()
        counted_w()
        inner_w()
        clock.t += 1.0

    leaf_w = tr.wrap(leaf, "specfun.leaf", tracing.TIMED)
    counted_w = tr.wrap(counted, "spectra.counted", tracing.COUNT)
    inner_w = tr.wrap(inner, "algebra.inner", tracing.SPAN)
    outer_w = tr.wrap(outer, "verify.outer", tracing.SPAN)
    tr.op = "op1"
    outer_w()

    assert tr.self_s["verify.outer"] == pytest.approx(2.25)
    assert tr.total_s["verify.outer"] == pytest.approx(5.25)
    assert tr.self_s["algebra.inner"] == pytest.approx(2.0)
    assert tr.self_s["specfun.leaf"] == pytest.approx(1.0)
    assert tr.calls == {"verify.outer": 1, "algebra.inner": 2,
                        "specfun.leaf": 2, "spectra.counted": 1}
    assert tracing.layer_self_s(tr.self_s, "algebra") == pytest.approx(2.0)
    # spans: both inner calls are children of outer; the TIMED leaf is not
    # a span; every span carries the op id
    by_name = {}
    for sid, name, start, end, parent, op in tr.spans:
        by_name.setdefault(name, []).append((sid, start, end, parent, op))
    (outer_id, o_start, o_end, o_parent, _), = by_name["verify.outer"]
    assert o_parent is None and (o_start, o_end) == (0.0, 5.25)
    assert [s[3] for s in by_name["algebra.inner"]] == [outer_id, outer_id]
    assert {s[4] for spans in by_name.values() for s in spans} == {"op1"}
    assert "specfun.leaf" not in by_name


def test_failures_are_counted_once_at_their_layer():
    tr = tracing.Tracer()

    class ConvergenceError(RuntimeError):
        pass

    def solve():
        raise ConvergenceError("no")

    solve_w = tr.wrap(solve, "oracle.solve", tracing.SPAN)
    caller_w = tr.wrap(lambda: solve_w(), "verify.caller", tracing.SPAN)
    with pytest.raises(ConvergenceError):
        caller_w()
    assert dict(tr.failures) == {"oracle": 1}


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        stats.percentile(range(99), 90)
    with pytest.raises(ValueError):
        stats.percentile(range(1000), 99.5)


def test_tail_takes_the_highest_allowed_percentile():
    assert stats.tail(range(100)) == (89, 90)
    assert stats.tail(range(40)) == (29, 75)
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50)


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


def test_install_rebinds_consumer_names_and_uninstall_restores():
    import ncqm
    from ncqm import algebra, oracle, params, spectra, verify
    before = (spectra.effective_coefficients, oracle.build_heisenberg_rep,
              verify.ALL_CHECKS, ncqm.ec_solve_energy)
    tr = tracing.Tracer()
    tr.install(ncqm)
    try:
        assert spectra.effective_coefficients is params.effective_coefficients
        assert spectra.effective_coefficients is not before[0]
        assert oracle.build_heisenberg_rep is algebra.build_heisenberg_rep
        assert oracle.build_heisenberg_rep is not before[1]
        assert ncqm.ec_solve_energy is spectra.ec_solve_energy
        assert len(verify.ALL_CHECKS) == len(run.VERIFY_CHECKS)
        verify.ALL_CHECKS[2]()   # check_hbar_eff_identity
        assert tr.calls["verify.check_hbar_eff_identity"] == 1
        assert tr.calls["algebra.commutator_residuals"] == 1
    finally:
        tr.uninstall()
    assert (spectra.effective_coefficients, oracle.build_heisenberg_rep,
            verify.ALL_CHECKS, ncqm.ec_solve_energy) == before


def test_computed_flops_and_bytes():
    import scipy.sparse as sp
    dense = np.ones((3, 3), dtype=complex)
    assert tracing.matmul_flops(dense, dense) == 2 * 27 * 4
    diag = sp.identity(3, format="csr")
    assert tracing.matmul_flops(diag, diag) == 2 * 3
    assert tracing._array_bytes(diag) == (diag.data.nbytes
                                          + diag.indices.nbytes
                                          + diag.indptr.nbytes)


def test_checks_flag_outputs_outside_the_pins():
    wl = workloads.SpectrumWorkload(seed=1)
    ref = wl.refs["energies"][0][0]
    assert wl.check([("level", 0, 0, ref * (1 + 1e-10))]) == []
    assert len(wl.check([("level", 0, 0, ref * (1 + 1e-8))])) == 1
    assert len(wl.check([("level", 0, 0, ValueError("x"))])) == 1


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
