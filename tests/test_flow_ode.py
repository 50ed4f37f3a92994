import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflow import algebra as alg
from grflow import curvature as cur
from grflow import flow_ode as fl
from grflow import metric as met
from grflow.curvature import ricci, ricci_closed_form, scalar, scalar_closed_form
from grflow.errors import DegenerateSubspace, ForbiddenRank, NonFiniteRecord, RetractionDiverged, ValidationError


def test_flow_rhs_abelian_zero():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 0)
    dg, ds = fl.flow_rhs(a, gm.G)
    assert np.max(np.abs(dg)) == 0.0 and ds == 0.0


def test_flow_rhs_identity_metric():
    a = alg.so3(1.0)
    dg, ds = fl.flow_rhs(a, np.eye(3))
    assert np.max(np.abs(dg)) <= 1e-14
    assert ds == pytest.approx(-a.norm_c_sq() / 12.0, abs=1e-14)


def test_flow_rhs_tangency(su2_double, graph_metric_123):
    g = graph_metric_123.G
    dg, _ = fl.flow_rhs(su2_double, g)
    assert np.max(np.abs(dg @ g + g @ dg)) <= 1e-10


def test_flow_rhs_debug_cross_check(su2_double, graph_metric_123):
    g = graph_metric_123.G
    dg, ds = fl.flow_rhs(su2_double, g)
    assert np.max(np.abs(dg + 2 * ricci(su2_double, g, None))) <= 1e-12
    assert ds == pytest.approx(-0.5 * scalar(su2_double, g, None), abs=1e-12)


def test_flow_rhs_forms_moved_gram_once(monkeypatch, su2_double, graph_metric_123):
    # T is formed once per right side and handed to both closed forms
    calls = []
    original = cur.moved_gram

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cur, "moved_gram", counted)
    monkeypatch.setattr(fl, "moved_gram", counted)
    fl.flow_rhs(su2_double, graph_metric_123.G)
    assert len(calls) == 1


def test_flow_rhs_is_the_closed_forms_bitwise(su2_double, complex_double):
    for a in (su2_double, complex_double):
        for seed in range(5):
            g = met.random_strictly_positive_metric(a, seed).G
            dg, ds = fl.flow_rhs(a, g)
            assert np.array_equal(dg, -2 * ricci_closed_form(a, g))
            assert ds == -0.5 * scalar_closed_form(a, g, None)


@pytest.mark.parametrize("tol", [0.0, -1.0])
def test_flow_params_reject_nonpositive_retract_tol(tol):
    with pytest.raises(ValidationError, match=f"^retract_tol must be positive and finite, got {tol!r}$"):
        fl.FlowParams(dt=1e-2, T=0.1, retract_tol=tol)


@pytest.mark.parametrize("bad", [{"dt": float("inf")}, {"T": float("inf")}, {"retract_tol": float("inf")}])
def test_flow_params_reject_infinite_values(bad):
    # T = inf would end a run only at its step budget or at a failure
    [(name, _)] = bad.items()
    with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got inf$"):
        fl.FlowParams(**bad)


def test_retraction_fixed_point(su2_double, graph_metric_123):
    out, res = fl.involution_retract(graph_metric_123.G, 1e-10)
    assert np.array_equal(out, graph_metric_123.G) and res == met.involution_residual(out)


def test_retraction_quadratic_convergence(su2_double, graph_metric_123):
    g = graph_metric_123.G + 1e-4 * np.eye(6)  # symmetric perturbation commuting with G
    out, res = fl.involution_retract(g, 1e-12, max_iter=3)
    assert res == met.involution_residual(out) <= 1e-12
    assert met.eta_symmetry_residual(su2_double, out) <= 1e-12


def test_retraction_guard():
    g = np.diag([1.0 + 0.6, 1.0, -1.0])  # residual > 0.5
    assert met.involution_residual(g) >= 0.5
    with pytest.raises(RetractionDiverged):
        fl.involution_retract(g, 1e-10)


def test_retraction_stalls_at_round_off(graph_metric_123):
    # from a residual of 1e-3 the iteration reaches round-off, where it cannot halve the residual again
    with pytest.raises(RetractionDiverged, match="retraction stalled at residual"):
        fl.involution_retract(graph_metric_123.G + 1e-3 * np.eye(6), 1e-300)


def test_retraction_iteration_budget(graph_metric_123):
    # from a residual of about 1e-2, two iterations reach about 4e-9: within 1e-6, not within 1e-300
    g = graph_metric_123.G + 5e-3 * np.eye(6)
    assert 1e-2 <= met.involution_residual(g) < 0.5
    assert met.involution_residual(fl.involution_retract(g, 1e-6, max_iter=2)[0]) <= 1e-6
    with pytest.raises(RetractionDiverged, match="after 2 iterations"):
        fl.involution_retract(g, 1e-300, max_iter=2)


def test_flow_step_so3_identity():
    a = alg.so3(1.0)
    st = fl.FlowState(0.0, np.eye(3), 0.0)
    out = fl.flow_step(a, st, fl.FlowParams(dt=0.1, T=1.0), 0.1, fl.flow_rhs(a, st.G))
    assert np.max(np.abs(out.G - np.eye(3))) <= 1e-12
    assert out.log_sigma == pytest.approx(-0.05, abs=1e-12)
    assert out.t == pytest.approx(0.1)


def test_flow_step_abelian_only_time_moves():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 3)
    st = fl.FlowState(0.0, gm.G, 0.2)
    out = fl.flow_step(a, st, fl.FlowParams(dt=0.05, T=1.0), 0.05, fl.flow_rhs(a, st.G))
    assert np.array_equal(out.G, gm.G)
    assert out.log_sigma == st.log_sigma
    assert out.t == pytest.approx(0.05)


def test_flow_step_postcondition(su2_double, graph_metric_123):
    st = fl.FlowState(0.0, graph_metric_123.G, 0.0)
    params = fl.FlowParams(dt=1e-2, T=1.0, retract_tol=1e-10)
    out = fl.flow_step(su2_double, st, params, params.dt, fl.flow_rhs(su2_double, st.G))
    assert met.involution_residual(out.G) <= params.retract_tol


def test_run_flow_stationary_traces():
    a = alg.so3(1.0)
    tr = fl.run_flow(a, fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    assert tr.aborted is None
    gr = np.array(tr["GR"])
    assert np.max(np.abs(gr - 1.0)) <= 1e-12
    slope = (tr["log_sigma"][-1] - tr["log_sigma"][0]) / (tr["t"][-1] - tr["t"][0])
    assert slope == pytest.approx(-0.5, abs=1e-10)
    assert np.max(np.abs(tr.final_state.G - np.eye(3))) <= 1e-10
    # S = GR sigma^2
    s_ref = gr * np.exp(2 * np.array(tr["log_sigma"]))
    assert np.max(np.abs(np.array(tr["S"]) - s_ref)) <= 1e-12


def test_run_flow_sigma_past_the_floats_reads_s_inf():
    # sigma^2 = e^800 overflows a float: S reads inf from the first row on, NaN where GR is 0 (an abelian
    # algebra), and no warning is raised
    tr = fl.run_flow(alg.so3(1.0), fl.FlowState(0.0, np.eye(3), 400.0), fl.FlowParams(dt=1e-2, T=0.1))
    assert tr.aborted is None and tr["S"][0] == np.inf and tr["GR"][0] == pytest.approx(1.0)
    ab = alg.abelian(4, 2)
    tr = fl.run_flow(ab, fl.FlowState(0.0, met.random_strictly_positive_metric(ab, 0).G, 400.0),
                     fl.FlowParams(dt=1e-2, T=0.1))
    assert tr.aborted is None and tr["GR"] == [0.0] * 11 and np.all(np.isnan(tr["S"]))


def test_run_flow_monotone_short(su2_double, graph_metric_123):
    tr = fl.run_flow(
        su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-3, T=0.5)
    )
    gr = np.array(tr["GR"])
    assert np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1])))
    assert max(tr["involution_residual"]) <= 1e-10
    rc2 = np.array(tr["normRc2"])
    defect = np.array(fl.monotonicity_defect(tr))
    mask = rc2[1:] > 1e-6
    assert np.max(defect[1:][mask] / (1 + rc2[1:][mask])) <= 5e-3


def test_run_flow_rejects_rank_one():
    a = alg.abelian(4, 3)
    with pytest.raises(ForbiddenRank):
        fl.run_flow(a, fl.FlowState(0.0, np.diag([1.0, -1, -1, -1]), 0.0), fl.FlowParams(dt=1e-3, T=0.1))


def test_run_flow_rejects_invalid_initial_metric_as_bad_input():
    # not an involution: a validation error (exit 2 in the CLI), not a numerical failure
    g = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(DegenerateSubspace):
        fl.run_flow(alg.so3(1.0), fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=1e-3, T=0.1))


def test_run_flow_underflow_carries_trace(su2_double, graph_metric_123, stopped_short):
    # the su(2) Ricci-type flow becomes extinct near t = 1.9; requesting a
    # longer horizon stops by step underflow and returns the trace with the note
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=5e-3, T=10.0))
    stopped_short(tr, f"step underflow at t = {tr['t'][-1]}")
    assert tr["t"][-1] > 1.5
    gr = np.array(tr["GR"])
    assert np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1])))


def _euler_reference(a, G0, T, dt):
    """Explicit-Euler integration of the metric equation (oracle for RK4)."""
    g = np.asarray(G0, dtype=float).copy()
    t = 0.0
    while t < T - 1e-12:
        step = min(dt, T - t)
        g = fl.involution_retract(g - 2.0 * step * ricci_closed_form(a, g), 1e-10)[0]
        t += step
    return g


def test_euler_oracle(su2_double, graph_metric_123):
    # RK4 at dt and explicit Euler at dt/100 agree on G(T)
    st = fl.FlowState(0.0, graph_metric_123.G, 0.0)
    dt = 1e-3
    T = 0.5
    g_rk4 = fl.run_flow(su2_double, st, fl.FlowParams(dt=dt, T=T)).final_state.G
    g_euler = _euler_reference(su2_double, graph_metric_123.G, T, dt / 100)
    assert np.max(np.abs(g_rk4 - g_euler)) <= 1e-5


def test_soliton_residual_values(su2_double, graph_metric_123):
    # sqrt(|GRc|^2_G) of the trace's first row, the Frobenius norm of GRc in an adapted frame of a strictly
    # positive metric: zero on a flat and an Einstein metric, not on the su(2) double's graph metric
    def first_row(a, g):
        return np.sqrt(fl.run_flow(a, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=1e-3, T=1e-3))["normRc2"][0])

    assert first_row(alg.abelian(4, 2), met.random_strictly_positive_metric(alg.abelian(4, 2), 1).G) == 0.0
    assert first_row(alg.so3(1.0), np.eye(3)) <= 1e-13
    assert first_row(su2_double, graph_metric_123.G) > 0.1


def test_flow_params_validation():
    # the package's validation family, as TorusParams and the max_steps check use
    for bad in ({"dt": -1.0}, {"dt": 0.0}, {"T": 0.0}, {"T": -2.0}, {"dt": float("nan")}, {"T": float("nan")}):
        [(name, value)] = bad.items()
        with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got {value!r}$"):
            fl.FlowParams(**bad)


def test_run_flow_pseudometric_permitted(su2_double):
    # mixed-signature V+ gives a pseudometric that is not strictly positive;
    # the run proceeds and reports diagnostics without asserting monotonicity
    w, u = np.linalg.eigh(su2_double.eta)
    order = np.argsort(-w)
    frame = (u / np.sqrt(np.abs(w)))[:, order]
    v_plus = frame[:, [0, 1, 3]]  # two positive directions, one negative
    gm = met.metric_from_subspace(su2_double, v_plus)
    assert not gm.strictly_positive
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=1e-3, T=0.05))
    assert len(tr.rows) == 51
    assert max(tr["involution_residual"]) <= 1e-10
    assert np.all(np.isfinite(tr["GR"]))


@pytest.mark.parametrize("max_steps", [0, -3, float("nan")])
def test_flow_params_reject_empty_step_budget(max_steps):
    with pytest.raises(ValidationError, match="max_steps"):
        fl.FlowParams(dt=1e-3, T=1.0, max_steps=max_steps)


def test_run_flow_max_steps_marks_abort(stopped_short):
    tr = fl.run_flow(alg.so3(1.0), fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-3, T=1.0, max_steps=5))
    stopped_short(tr, "max_steps = 5")
    assert len(tr.rows) == 6 and tr["t"][-1] < 1.0
    assert repr(tr["t"][-1]) in tr.aborted


def test_run_flow_positivity_loss_returns_trace(monkeypatch, su2_double, graph_metric_123, stopped_short):
    # a step that lands on -G (an involution, but eta G is negative definite) stops the run before that
    # state is recorded; final_state is the last state reached
    step = fl.flow_step
    steps = []

    def flips_third(*args, **kwargs):
        new = step(*args, **kwargs)
        steps.append(new)
        return fl.FlowState(new.t, -new.G, new.log_sigma) if len(steps) == 3 else new

    monkeypatch.setattr(fl, "flow_step", flips_third)
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    stopped_short(tr, f"strict positivity lost at t = {steps[2].t}")
    assert len(tr.rows) == 3 and np.array_equal(tr.final_state.G, steps[1].G)


@pytest.fixture(scope="module")
def watched_runs(su2_double, graph_metric_123):
    """``run(seed, dt, T)``: the run from graph(diag(1, 2, 3)), or from a seeded random start, with its positivity
    watch spied on, as (trace, each decision of the Weyl certificate, each G it cleared that eigvalsh reads not
    strictly positive). Each run is formed once for the tests that read it."""
    runs = {}

    def run(seed, dt, T):
        if (seed, dt, T) not in runs:
            g = graph_metric_123.G if seed is None else met.random_strictly_positive_metric(su2_double, seed).G
            within, cleared, wrong = fl.within_radius, [], []

            def spy(g_new, g_ref, radius):
                clears = within(g_new, g_ref, radius)
                cleared.append(clears)
                if clears and not met.is_strictly_positive(su2_double, g_new):
                    wrong.append(g_new)
                return clears

            with pytest.MonkeyPatch.context() as m:
                m.setattr(fl, "within_radius", spy)
                tr = fl.run_flow(su2_double, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=dt, T=T))
            runs[seed, dt, T] = tr, cleared, wrong
        return runs[seed, dt, T]

    return run


@pytest.mark.parametrize("seed, dt, T, note", [
    (None, 1e-3, 1.0, None),  # the benchmark run
    (None, 1e-3, 10.0, "step underflow at t = 1.8946357236655502"),
    (5, 2e-2, 2.0, "step underflow at t = "),  # a random start whose steps are halved
])
def test_positivity_watch_decides_as_eigvalsh_on_every_step(watched_runs, seed, dt, T, note):
    # the Weyl certificate only spares eigvalsh calls: every accepted G it clears is one eigvalsh reads strictly
    # positive, and any other forms its margin, so each step decides as eigvalsh alone would, and so does the trace
    tr, cleared, wrongly_cleared = watched_runs(seed, dt, T)
    assert not wrongly_cleared
    assert len(cleared) == len(tr.rows) - 1 and any(cleared) and not all(cleared)  # both branches run
    assert (tr.aborted is None) if note is None else (note in tr.aborted)
    if seed is not None:
        assert np.min(np.diff(tr["t"])) < dt / 2


def test_positivity_watch_forms_a_margin_per_hundred_steps(monkeypatch, su2_double, graph_metric_123):
    margins = _record_calls(monkeypatch, "positivity_margin")
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-3, T=1.0))
    assert len(tr.rows) == 1001 and tr.aborted is None
    assert 1 <= len(margins) <= 20


@pytest.mark.parametrize("preset", [0, 1, 2])
def test_metrics_within_the_weyl_radius_are_strictly_positive(su2_double, complex_double, cap_metric, preset):
    # seeded perturbations E of a positive reference g, of Frobenius norm up to the radius, and the steepest descent
    # of the margin, -r (eta v) v^T / |eta v| for the least eigenvector v of sym(eta g): each g + E reads positive
    a = (su2_double, complex_double, cap_metric[1])[preset]
    eta_norm = float(np.linalg.norm(a.eta, 2))
    rng = np.random.default_rng(60 + preset)
    for seed in range(10):
        g = met.random_strictly_positive_metric(a, seed).G
        margin = met.positivity_margin(a, g)
        r = fl.weyl_radius(g, margin, eta_norm)
        assert r == 0.5 * margin / eta_norm > 0
        pairing = a.eta @ g
        v = np.linalg.eigh((pairing + pairing.T) / 2)[1][:, 0]
        w = a.eta @ v
        steepest = -r * np.outer(w, v) / np.linalg.norm(w)
        for e in [steepest, *rng.standard_normal((20, a.n, a.n))]:
            e = e * (r * rng.uniform(0.5, 1.0) / np.linalg.norm(e))
            assert fl.within_radius(g + e, g, r) and met.is_strictly_positive(a, g + e)
        assert met.positivity_margin(a, g + steepest) < margin - 0.5 * r * np.linalg.norm(w)  # near the bound
    # a margin within round-off of 0 certifies nothing
    assert fl.weyl_radius(np.eye(a.n), 1e-14, eta_norm) == -np.inf
    assert fl.weyl_radius(np.eye(a.n), float("nan"), eta_norm) == -np.inf


@pytest.mark.parametrize("c, log_sigma", [(c, x) for c in (0.0, 1.0, 2.0) for x in (354.5, 354.89, 354.9, 400.0)])
def test_s_is_the_errstate_form_bitwise_and_silent(c, log_sigma):
    # S = GR sigma^2 on both sides of the exp threshold (2 log sigma = 709, 709.78 and past the largest finite
    # sigma^2), with GR 0 (an abelian algebra), 1 and 4: the trace's S is the errstate form bitwise, with no warning
    a = alg.abelian(4, 2) if c == 0.0 else alg.so3(c)
    g = met.random_strictly_positive_metric(a, 0).G if c == 0.0 else np.eye(3)
    tr = fl.run_flow(a, fl.FlowState(0.0, g, log_sigma), fl.FlowParams(dt=1e-2, T=2e-2))  # warnings are errors here
    assert tr["log_sigma"][0] == log_sigma and len(tr.rows) == 3
    with np.errstate(over="ignore", invalid="ignore"):
        old = [float(gr * np.exp(2 * ls)) for gr, ls in zip(tr["GR"], tr["log_sigma"])]
    assert np.array(tr["S"]).tobytes() == np.array(old).tobytes()


def _record_calls(monkeypatch, name):
    calls = []
    original = getattr(fl, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(fl, name, recorded)
    return calls


def test_closed_forms_once_per_state(monkeypatch, su2_double, graph_metric_123):
    # the RHS at each accepted state feeds the trace row and is the next step's
    # k1, so a step costs the 4 RK4 stages and the initial state 1
    riccis = _record_calls(monkeypatch, "ricci_closed_form")
    scalars = _record_calls(monkeypatch, "scalar_closed_form")
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-2, T=0.1))
    n = len(tr.rows) - 1
    assert n == 10 and tr.aborted is None
    assert np.diff(tr["t"]) == pytest.approx([1e-2] * n)  # no halving
    assert len(riccis) == 4 * n + 1
    assert len(scalars) == 4 * n + 1


def _restore_the_old_scan(monkeypatch):
    """Put back the step's scan of the RK4 increment: an increment whose dG is not finite reports ds = NaN, so
    ``flow_step`` halves on it before the retraction, as its ``np.all(np.isfinite(dg))`` test did."""
    increment = fl._rk4_increment

    def scanned(*args):
        dg, ds = increment(*args)
        return dg, (ds if np.all(np.isfinite(dg)) else math.nan)

    monkeypatch.setattr(fl, "_rk4_increment", scanned)


@pytest.mark.parametrize("planted", ["dG inf", "dG nan", "ds nan"])
def test_non_finite_stage_halves_once(monkeypatch, su2_double, graph_metric_123, planted):
    # the last stage of the first attempt returns a non-finite rate: the retraction's guard rejects G + dG (or
    # the ds test the increment), the step halves once, and the state is the one the old scan gave, with no
    # warning. An earlier stage would carry a non-finite G into the next stages, and so into ds too
    a, g = su2_double, graph_metric_123.G
    state = fl.FlowState(0.0, g, 0.0, met.involution_residual(g))
    k1 = fl.flow_rhs(a, g)
    plant = {"dG inf": lambda dg, ds: (np.full_like(dg, math.inf), ds),
             "dG nan": lambda dg, ds: (np.full_like(dg, math.nan), ds),
             "ds nan": lambda dg, ds: (dg, math.nan)}[planted]

    def step(old_scan):
        with monkeypatch.context() as m:
            rhs, stages = fl.flow_rhs, []

            def plants_third(a, g):
                stages.append(1)
                return plant(*rhs(a, g)) if len(stages) == 3 else rhs(a, g)

            m.setattr(fl, "flow_rhs", plants_third)
            if old_scan:
                _restore_the_old_scan(m)
            retracts = _record_calls(m, "involution_retract")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                new = fl.flow_step(a, state, fl.FlowParams(dt=1e-2), 1e-2, k1)
        return new, len(stages), len(retracts)

    new, stages, retracts = step(old_scan=False)
    old, old_stages, old_retracts = step(old_scan=True)
    assert new.t == old.t == 5e-3 and stages == old_stages == 6
    assert np.array_equal(new.G, old.G) and new.log_sigma == old.log_sigma and new.residual == old.residual
    assert math.isfinite(new.log_sigma) and np.all(np.isfinite(new.G))
    # the guard, not a scan, rejected the non-finite G + dG; a NaN ds is rejected before the retraction
    assert (retracts, old_retracts) == ((1, 1) if planted == "ds nan" else (2, 1))


@pytest.mark.parametrize("seed, dt, T", [(None, 1e-3, 1.0), (None, 1e-3, 10.0), (5, 2e-2, 2.0)])
def test_runs_without_the_scan_are_bitwise_the_scanned_runs(monkeypatch, su2_double, graph_metric_123, watched_runs,
                                                            seed, dt, T):
    # the positivity watch's runs: the benchmark run, its continuation to a step underflow, and a random start
    # whose steps are halved
    g = graph_metric_123.G if seed is None else met.random_strictly_positive_metric(su2_double, seed).G
    tr = watched_runs(seed, dt, T)[0]
    _restore_the_old_scan(monkeypatch)
    old = fl.run_flow(su2_double, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=dt, T=T))
    assert list(map(repr, tr.rows)) == list(map(repr, old.rows)) and tr.aborted == old.aborted  # repr: bitwise
    assert (tr.aborted is None) == (T == 1.0)


def test_non_finite_row_ends_the_run(monkeypatch, su2_double, graph_metric_123, stopped_short):
    # a declared column that reads NaN rejects its row: the run stops with a note naming the column and t
    norm, rows = fl.mixed_norm_sq, []

    def nan_third(*args):
        rows.append(1)
        return math.nan if len(rows) == 3 else norm(*args)

    monkeypatch.setattr(fl, "mixed_norm_sq", nan_third)
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    stopped_short(tr, f"non-finite normRc2 = nan at t = {tr.final_state.t}")
    assert len(tr.rows) == 2 and tr.final_state.t == pytest.approx(0.02)
    assert fl.FINITE == ("t", "GR", "normRc2", "log_sigma", "involution_residual")


def test_non_finite_initial_row_raises(monkeypatch, su2_double, graph_metric_123):
    monkeypatch.setattr(fl, "mixed_norm_sq", lambda *args: math.inf)
    with pytest.raises(NonFiniteRecord, match=r"^non-finite normRc2 = inf at t = 0\.0$"):
        fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-2, T=1.0))


def test_halved_step_reuses_k1(monkeypatch, su2_double, graph_metric_123):
    st0 = fl.FlowState(0.0, graph_metric_123.G, 0.0)
    original = fl.involution_retract
    attempts = []

    def fails_first(G, *args, **kwargs):
        attempts.append(1)
        if len(attempts) == 1:
            raise RetractionDiverged("forced")
        return original(G, *args, **kwargs)

    monkeypatch.setattr(fl, "involution_retract", fails_first)
    rhs_calls = _record_calls(monkeypatch, "flow_rhs")
    out = fl.flow_step(su2_double, st0, fl.FlowParams(dt=1e-2, T=1.0), 1e-2, fl.flow_rhs(su2_double, st0.G))
    assert len(attempts) == 2 and out.t == pytest.approx(5e-3)
    at_start = [args for args in rhs_calls if np.array_equal(args[1], st0.G)]
    assert len(at_start) == 1
    assert len(rhs_calls) == 1 + 2 * 3


def test_each_state_forms_its_involution_residual_once(monkeypatch, su2_double, graph_metric_123):
    # at dt 1e-3 an RK4 increment leaves G^2 - Id within retract_tol, so each step's retraction forms the residual
    # once, and the trace row reads it: n steps cost n calls, and the initial record, which no retraction made, 1
    residuals = _record_calls(monkeypatch, "involution_residual")
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-3, T=1e-2))
    n = len(tr.rows) - 1
    assert n == 10 and tr.aborted is None
    assert np.diff(tr["t"]) == pytest.approx([1e-3] * n)  # no halving
    assert len(residuals) == n + 1


def _bitwise(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def test_trace_residual_is_each_states(monkeypatch, su2_double, graph_metric_123):
    # each row's involution_residual is that of the state it records, bitwise, on a plain run and on one whose
    # fifth step is halved; the last row's is that of the final state. Each row's S is bitwise its own GR sigma^2,
    # and monotonicity_defect, formed from the trace after the run, is bitwise that of the row and the one before it
    step, retract = fl.flow_step, fl.involution_retract
    states, attempts = [], []

    def recorded(*args, **kwargs):
        states.append(step(*args, **kwargs))
        return states[-1]

    def fails_fifth(G, *args, **kwargs):
        attempts.append(1)
        if len(attempts) == 5:
            raise RetractionDiverged("forced")
        return retract(G, *args, **kwargs)

    monkeypatch.setattr(fl, "flow_step", recorded)
    for halve in (False, True):
        if halve:
            monkeypatch.setattr(fl, "involution_retract", fails_fifth)
        states.clear()
        tr = fl.run_flow(su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-2, T=0.05))
        t, gr, rc2 = tr["t"], tr["GR"], tr["normRc2"]
        assert tr.aborted is None and len(tr.rows) == len(states) + 1
        assert (t[5] - t[4] == pytest.approx(5e-3)) is halve
        rows = [met.involution_residual(g) for g in [graph_metric_123.G] + [st.G for st in states]]
        assert [_bitwise(x, y) for x, y in zip(tr["involution_residual"], rows)] == [True] * len(rows)
        assert _bitwise(tr["involution_residual"][-1], met.involution_residual(tr.final_state.G))
        defects = [0.0] + [abs((gr1 - gr0) / (t1 - t0) - 0.5 * (rc0 + rc1)) for t0, t1, gr0, gr1, rc0, rc1
                           in zip(t, t[1:], gr, gr[1:], rc2, rc2[1:])]
        assert [_bitwise(x, y) for x, y in zip(fl.monotonicity_defect(tr), defects)] == [True] * len(rows)
        sigma = [g * float(np.exp(2 * log_sigma)) for g, log_sigma in zip(gr, tr["log_sigma"])]
        assert [_bitwise(x, y) for x, y in zip(tr["S"], sigma)] == [True] * len(rows)


def test_steps_below_the_spacing_of_t_are_underflow(su2_double, graph_metric_123):
    # at t = 1e6 a step of 1e-11 is below half the float spacing, so t + dt == t: the run stops by step underflow
    # at its initial record, which no row of zero length follows
    tr = fl.run_flow(su2_double, fl.FlowState(1e6, graph_metric_123.G, 0.0),
                     fl.FlowParams(dt=1e-11, T=1e6 + 1, max_steps=3))
    assert len(tr.rows) == 1 and tr.aborted == "step underflow at t = 1000000.0"
    assert fl.monotonicity_defect(tr) == [0.0]


def test_halving_stops_where_a_step_no_longer_moves_t(su2_double):
    # a large metric whose flow becomes extinct near t = 1894: flow_step halves dt = 10 down to the spacing of t
    # (2.3e-13 there), and the run stops by underflow before it records a step that leaves t where it is
    g = met.metric_from_graph(su2_double, 1000.0 * np.diag([1.0, 2.0, 3.0])).G
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=10.0, T=1e4))
    steps = np.diff(tr["t"])
    assert tr.aborted == f"step underflow at t = {tr['t'][-1]}" and tr.final_state.t == tr["t"][-1]
    assert np.all(steps > 0.0) and steps[-1] <= 2 * np.spacing(tr["t"][-1])
    assert np.all(np.isfinite(fl.monotonicity_defect(tr)))


_SU2_DOUBLE = alg.cotangent_double(alg.su2_structure())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), dt=st.floats(1e-3, 5e-2), max_steps=st.integers(1, 50))
def test_run_flow_terminal_states(seed, dt, max_steps):
    # a run reaches T, or says it did not; either way GR never falls
    T = 0.5
    gm = met.random_strictly_positive_metric(_SU2_DOUBLE, seed)
    tr = fl.run_flow(_SU2_DOUBLE, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=dt, T=T, max_steps=max_steps))
    if tr.aborted is None:
        assert tr["t"][-1] >= T - 1e-12
    else:
        assert tr["t"][-1] < T
    assert {len(row) for row in tr.rows} == {len(fl.COLUMNS)}
    gr = np.array(tr["GR"])
    assert np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1])))


def test_run_flow_commutes_with_su2_double_rotation(su2_double):
    # P = diag(R, R), R a rotation of the 2-3 plane of su(2), is an eta-orthogonal automorphism of the
    # double, so the flow commutes with G -> P G P^-1 and keeps a P-invariant G = graph(diag(1, 2, 2)) so
    c, s = np.cos(0.7), np.sin(0.7)
    r = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    p = np.kron(np.eye(2), r)
    assert np.max(np.abs(p.T @ su2_double.eta @ p - su2_double.eta)) <= 1e-15
    assert np.max(np.abs(np.einsum("abg,ai,bj,gk->ijk", su2_double.c, p, p, p) - su2_double.c)) <= 1e-15
    g_inv = met.metric_from_graph(su2_double, np.diag([1.0, 2.0, 2.0])).G
    tr = fl.run_flow(su2_double, fl.FlowState(0.0, g_inv, 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    assert tr.aborted is None and np.max(np.abs(tr.final_state.G - g_inv)) >= 0.5  # the metric really moves
    assert np.max(np.abs(p @ tr.final_state.G @ p.T - tr.final_state.G)) <= 1e-12
    g0 = met.random_strictly_positive_metric(su2_double, 3).G
    params = fl.FlowParams(dt=1e-2, T=0.3)  # this metric's flow becomes extinct before t = 1
    moved = fl.run_flow(su2_double, fl.FlowState(0.0, p @ g0 @ p.T, 0.0), params).final_state.G
    ref = fl.run_flow(su2_double, fl.FlowState(0.0, g0, 0.0), params).final_state.G
    assert np.max(np.abs(ref - g0)) >= 0.1
    assert np.max(np.abs(moved - p @ ref @ p.T)) <= 1e-12 * np.max(np.abs(ref))
