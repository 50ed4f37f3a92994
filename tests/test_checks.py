"""A check that raises a NumericalError fails alone, at worst = inf; the rest of the suite still runs."""

import math

import pytest

from grflow import checks
from grflow import curvature as cur
from grflow.errors import DegenerateMetric, RouteDisagreement

ALGEBRAIC_NAMES = [
    "preset_validation", "change_basis_roundtrip", "c_norm_invariance", "metric_invariants", "projector_algebra",
    "lie_derivative_tangency", "tangent_norm_identity", "tau_tau_prime", "kappa_kappa_prime", "kappa_tau_prime",
    "tau_kappa_prime", "lc_postconditions", "lc_fixed_point", "lc_kernel_constraints", "riemann_symmetries",
    "riemann_mixed_trace", "ricci_triple_route", "scalar_dual_route", "curvature_kernel_invariance",
    "ricci_divergence_shift", "scalar_divergence_shift", "bianchi_identity", "curvature_equivariance",
    "monotonicity_identity", "fd_ratio_scalar_variation", "fd_ratio_ricci_variation",
    "connection_variation_postconditions", "connection_variation_blockwise", "eh_gradient_fd",
    "flow_identity_stationary", "flow_log_sigma_slope", "flow_abelian_stationary", "retraction_convergence",
]
TABLES = (checks.PRESET_CHECKS, checks.INSTANCE_CHECKS, checks.PATH_CHECKS)


def _planted(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


def _failures(seed=0, instances=4):
    return {r.name: (r.worst, r.note) for r in checks.run_algebraic_checks(seed, instances) if not r.passed}


def test_algebraic_check_that_raises_fails_alone(monkeypatch):
    assert [r.name for r in checks.run_algebraic_checks(seed=0, instances=4)] == ALGEBRAIC_NAMES
    # the suite's own calls to cur.ricci raise; variation's formulas hold their own reference and still run
    monkeypatch.setattr(cur, "ricci", _planted(RouteDisagreement("planted")))
    results = checks.run_algebraic_checks(seed=0, instances=4)
    assert [r.name for r in results] == ALGEBRAIC_NAMES
    failed = {r.name: (r.worst, r.note) for r in results if not r.passed}
    assert failed == dict.fromkeys(("ricci_divergence_shift", "bianchi_identity", "fd_ratio_ricci_variation"),
                                   (float("inf"), "raised RouteDisagreement: planted"))


@pytest.mark.parametrize("table, name", [pytest.param(t, n, id=n) for t in TABLES for n in t])
def test_aggregated_check_whose_residual_raises_fails_alone(monkeypatch, table, name):
    # one instance reaches every residual once: a planted one raises on its first record
    monkeypatch.setitem(table, name, (table[name][0], _planted(RouteDisagreement("planted"))))
    assert _failures(instances=1) == {name: (float("inf"), "raised RouteDisagreement: planted")}


def test_shared_input_that_raises_fails_exactly_its_readers(monkeypatch):
    monkeypatch.setattr(cur, "curvature_report", _planted(DegenerateMetric("planted")))
    readers = ("riemann_symmetries", "riemann_mixed_trace", "ricci_triple_route", "scalar_dual_route",
               "curvature_kernel_invariance", "monotonicity_identity")
    assert _failures() == dict.fromkeys(readers, (float("inf"), "raised DegenerateMetric: planted"))


def test_torus_check_that_raises_fails_alone(monkeypatch):
    # the three diffeomorphism bands share one computation; each re-runs it and fails on its own
    monkeypatch.setattr(checks, "diffeomorphism_convergence_ratios", _planted(DegenerateMetric("planted")))
    results = checks.run_torus_checks(N=8)
    assert len(results) == 22
    failed = {r.name: (r.worst, r.note) for r in results if not r.passed}
    assert failed == {f"torus_diffeomorphism_{key}": (float("inf"), "raised DegenerateMetric: planted")
                      for key in ("g", "phi", "ricci")}


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setitem(checks.INSTANCE_CHECKS, "bianchi_identity", (1e-10, lambda x: float("nan")))
    failed = _failures(instances=1)
    assert list(failed) == ["bianchi_identity"]
    assert math.isnan(failed["bianchi_identity"][0])


def test_nan_in_band_fails():
    # not on the first record, where the smallest value would keep it anyway
    [result] = checks._aggregate({"band": ((25, 400), lambda x: x)}, [100.0, float("nan")])
    assert not result.passed and math.isnan(result.worst)


def test_band_check_without_values_fails(monkeypatch):
    monkeypatch.setitem(checks.PATH_CHECKS, "fd_ratio_ricci_variation", ((25, 400), lambda x: None))
    failed = {r.name: (r.worst, r.note) for r in checks.run_variation_checks(0) if not r.passed}
    assert failed == {"fd_ratio_ricci_variation": (float("inf"), "band [25,400]: no record has a value")}
