"""A check that raises a NumericalError fails alone, at worst = inf; the rest of the suite still runs."""

import functools
import json
import math

import numpy as np
import pytest

from grflow import checks, cli
from grflow import curvature as cur
from grflow import exact_torus as et
from grflow import flow_ode as fl
from grflow import metric as met
from grflow.errors import DegenerateMetric, EigensolverStalled, RouteDisagreement

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
TORUS_NAMES = [
    "torus_ddB_zero", "torus_flux_density_dB", "torus_eh_density_identity", "torus_ricci_dilaton_regression",
    "torus_homogeneous_benchmark_g", "torus_homogeneous_benchmark_minR", "torus_lambda_monotone_benchmark",
    "torus_lambda_flux_value", "torus_lambda_flat_value", "torus_lambda_monotone_perturbed",
    "torus_min_scalar_monotone_perturbed", "torus_spatial_convergence_g", "torus_anisotropic_flux_closed_form",
    "torus_single_mode_B_exact", "torus_div_h_divergence_form", "torus_translation_commutes",
    "torus_permutation_commutes", "torus_reflection_commutes", "torus_diffeomorphism_g", "torus_diffeomorphism_phi",
    "torus_diffeomorphism_ricci", "torus_b_gauge_invariant",
]
TABLES = (checks.PRESET_CHECKS, checks.INSTANCE_CHECKS, checks.PATH_CHECKS, checks.FLOW_CHECKS)


def test_instance_stream_builds_each_preset_once():
    # instances of one preset share one algebra, and the (G, seed) stream is the one that builds per instance
    stream = list(checks.instance_stream(7, 10))
    assert len({id(a) for a, _, _ in stream}) == len(checks.PRESETS)
    assert all(a is stream[i % len(checks.PRESETS)][0] for i, (a, _, _) in enumerate(stream))
    rng = np.random.default_rng(7)
    for i, (a, gm, sub) in enumerate(stream):
        fresh = checks.PRESETS[i % len(checks.PRESETS)][1]()
        assert sub == int(rng.integers(2**31))
        assert np.array_equal(gm.G, met.random_strictly_positive_metric(fresh, sub).G)
        assert np.array_equal(a.eta, fresh.eta) and np.array_equal(a.c, fresh.c)
    assert len(list(checks.instance_stream(7, 2))) == 2


def _planted(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


def _failures(seed=0, instances=4):
    return {r.name: (r.worst, r.note) for r in checks.run_algebraic_checks(seed, instances) if not r.passed}


def _check_report(tmp_path, scope, instances=2):
    """Run ``grf check``, which must exit 3, and return the names and the (worst, note) of the failed checks."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"mode": "check", "check": {"scope": scope, "instances": instances}}))
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 3
    rep = json.loads((tmp_path / "check_report.json").read_text())
    return [c["name"] for c in rep["checks"]], {c["name"]: (c["worst"], c["note"]) for c in rep["checks"]
                                                 if not c["passed"]}


def test_algebraic_check_that_raises_fails_alone(monkeypatch):
    assert [r.name for r in checks.run_algebraic_checks(seed=0, instances=4)] == ALGEBRAIC_NAMES
    # the suite's own calls to cur.ricci raise; variation's formulas hold their own reference and still run
    monkeypatch.setattr(cur, "ricci", _planted(RouteDisagreement("planted")))
    results = checks.run_algebraic_checks(seed=0, instances=4)
    assert [r.name for r in results] == ALGEBRAIC_NAMES
    failed = {r.name: (r.worst, r.note) for r in results if not r.passed}
    assert failed == dict.fromkeys(("ricci_divergence_shift", "bianchi_identity", "fd_ratio_ricci_variation"),
                                   (float("inf"), "raised RouteDisagreement: planted"))


@pytest.fixture(scope="module")
def variation_results():
    """The 20 variation paths' results, which a check planted in another table cannot reach."""
    return checks.run_variation_checks(0)


@pytest.mark.parametrize("table, name", [pytest.param(t, n, id=n) for t in TABLES for n in t])
def test_aggregated_check_whose_residual_raises_fails_alone(monkeypatch, variation_results, table, name):
    # two instances (abelian and so3) reach every residual: a planted one raises on its first record
    if table is not checks.PATH_CHECKS:
        monkeypatch.setattr(checks, "run_variation_checks", lambda seed: variation_results)
    monkeypatch.setitem(table, name, (table[name][0], _planted(RouteDisagreement("planted"))))
    assert _failures(instances=2) == {name: (float("inf"), "raised RouteDisagreement: planted")}


def test_shared_input_that_raises_fails_exactly_its_readers(monkeypatch):
    monkeypatch.setattr(cur, "curvature_report", _planted(DegenerateMetric("planted")))
    readers = ("riemann_symmetries", "riemann_mixed_trace", "ricci_triple_route", "scalar_dual_route",
               "curvature_kernel_invariance", "monotonicity_identity")
    assert _failures() == dict.fromkeys(readers, (float("inf"), "raised DegenerateMetric: planted"))


def test_torus_check_that_raises_fails_alone(tmp_path, monkeypatch):
    # a shared input that raises fails exactly its readers: a lambda stall the four flux benchmark checks, the
    # two perturbed-run checks and the flat lambda value; the three diffeomorphism bands each re-run their
    # shared computation and fail on their own. The report is still written, in report order.
    monkeypatch.setattr(et, "lambda_torus", _planted(EigensolverStalled("planted")))
    monkeypatch.setattr(checks, "diffeomorphism_convergence_ratios", _planted(DegenerateMetric("planted")))
    monkeypatch.setattr(checks, "run_torus_checks", functools.partial(checks.run_torus_checks, N=8))
    names, failed = _check_report(tmp_path, "torus")
    assert names == TORUS_NAMES == list(checks.TORUS_CHECKS)
    stalled = ("torus_homogeneous_benchmark_g", "torus_homogeneous_benchmark_minR", "torus_lambda_monotone_benchmark",
               "torus_lambda_flux_value", "torus_lambda_flat_value", "torus_lambda_monotone_perturbed",
               "torus_min_scalar_monotone_perturbed")
    assert failed == {**dict.fromkeys(stalled, ("Infinity", "raised EigensolverStalled: planted")),
                      **{f"torus_diffeomorphism_{key}": ("Infinity", "raised DegenerateMetric: planted")
                         for key in ("g", "phi", "ricci")}}


def test_flow_run_that_raises_fails_its_readers(tmp_path, monkeypatch):
    # the so(3) run is read by two checks and the abelian run by one; the retraction check runs no flow
    monkeypatch.setattr(fl, "flow_rhs", _planted(RouteDisagreement("planted")))
    names, failed = _check_report(tmp_path, "algebraic")
    assert names == ALGEBRAIC_NAMES
    assert failed == dict.fromkeys(("flow_identity_stationary", "flow_log_sigma_slope", "flow_abelian_stationary"),
                                   ("Infinity", "raised RouteDisagreement: planted"))


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setitem(checks.INSTANCE_CHECKS, "bianchi_identity", (1e-10, lambda x: float("nan")))
    failed = _failures(instances=2)
    assert list(failed) == ["bianchi_identity"]
    assert math.isnan(failed["bianchi_identity"][0])


def test_nan_in_band_fails():
    # not on the first record, where the smallest value would keep it anyway
    [result] = checks._aggregate({"band": ((25, 400), lambda x: x)}, [100.0, float("nan")])
    assert not result.passed and math.isnan(result.worst)


def test_band_result_names_its_edges():
    # a result's tol holds only the upper edge: a value below the lower one is read against the note's band
    [result] = checks._aggregate({"band": ((25, 400), lambda x: x)}, [21.63, 488.5])
    assert (result.worst, result.tol, result.passed) == (21.63, 400, False)
    assert result.note == "band [25,400]: n=2, max=488.5"


def test_band_check_without_values_fails(monkeypatch):
    monkeypatch.setitem(checks.PATH_CHECKS, "fd_ratio_ricci_variation", ((25, 400), lambda x: None))
    failed = {r.name: (r.worst, r.note) for r in checks.run_variation_checks(0) if not r.passed}
    assert failed == {"fd_ratio_ricci_variation": (float("inf"), "band [25,400]: no record has a value")}


def test_check_that_no_record_evaluates_fails():
    # one instance, the abelian one, draws no conjugation: curvature_equivariance evaluates nothing, and a
    # check that has shown nothing fails, like a band check without values
    assert _failures(instances=1) == {"curvature_equivariance": (float("inf"), "no record has a value")}
    [result] = checks._aggregate({"tol": (1e-10, lambda x: None)}, [1.0, 2.0])
    assert (result.worst, result.passed, result.note) == (float("inf"), False, "no record has a value")
