"""A check that raises a NumericalError fails alone, at worst = inf; the rest of the suite still runs."""

from grflow import checks
from grflow import curvature as cur
from grflow.errors import DegenerateMetric, RouteDisagreement


def _planted(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


def test_algebraic_check_that_raises_fails_alone(monkeypatch):
    names = [r.name for r in checks.run_algebraic_checks(seed=0, instances=4)]
    # the suite's own calls to cur.ricci raise; variation's formulas hold their own reference and still run
    monkeypatch.setattr(cur, "ricci", _planted(RouteDisagreement("planted")))
    results = checks.run_algebraic_checks(seed=0, instances=4)
    assert [r.name for r in results] == names
    failed = {r.name: (r.worst, r.note) for r in results if not r.passed}
    assert failed == dict.fromkeys(("ricci_divergence_shift", "bianchi_identity", "fd_ratio_ricci_variation"),
                                   (float("inf"), "raised RouteDisagreement: planted"))


def test_torus_check_that_raises_fails_alone(monkeypatch):
    # the three diffeomorphism bands share one computation; each re-runs it and fails on its own
    monkeypatch.setattr(checks, "diffeomorphism_convergence_ratios", _planted(DegenerateMetric("planted")))
    results = checks.run_torus_checks(N=8)
    assert len(results) == 22
    failed = {r.name: (r.worst, r.note) for r in results if not r.passed}
    assert failed == {f"torus_diffeomorphism_{key}": (float("inf"), "raised DegenerateMetric: planted")
                      for key in ("g", "phi", "ricci")}
