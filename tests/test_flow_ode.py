import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflow import algebra as alg
from grflow import flow_ode as fl
from grflow import metric as met
from grflow.curvature import ricci, scalar
from grflow.errors import DegenerateSubspace, ForbiddenRank, RetractionDiverged, StepUnderflow


def test_flow_rhs_abelian_zero():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 0)
    dg, ds = fl.flow_rhs(a, fl.FlowState(0.0, gm.G, 0.0))
    assert np.max(np.abs(dg)) == 0.0 and ds == 0.0


def test_flow_rhs_identity_metric():
    a = alg.so3(1.0)
    dg, ds = fl.flow_rhs(a, fl.FlowState(0.0, np.eye(3), 0.0))
    assert np.max(np.abs(dg)) <= 1e-14
    assert ds == pytest.approx(-a.norm_c_sq() / 12.0, abs=1e-14)


def test_flow_rhs_tangency(su2_double, graph_metric_123):
    g = graph_metric_123.G
    dg, _ = fl.flow_rhs(su2_double, fl.FlowState(0.0, g, 0.0))
    assert np.max(np.abs(dg @ g + g @ dg)) <= 1e-10


def test_flow_rhs_debug_cross_check(su2_double, graph_metric_123):
    g = graph_metric_123.G
    dg, ds = fl.flow_rhs(su2_double, fl.FlowState(0.0, g, 0.0))
    assert np.max(np.abs(dg + 2 * ricci(su2_double, g, None))) <= 1e-12
    assert ds == pytest.approx(-0.5 * scalar(su2_double, g, None), abs=1e-12)


def test_retraction_fixed_point(su2_double, graph_metric_123):
    out = fl.involution_retract(graph_metric_123.G, 1e-10)
    assert np.array_equal(out, graph_metric_123.G)


def test_retraction_quadratic_convergence(su2_double, graph_metric_123):
    g = graph_metric_123.G + 1e-4 * np.eye(6)  # symmetric perturbation commuting with G
    out = fl.involution_retract(g, 1e-12, max_iter=3)
    assert met.involution_residual(out) <= 1e-12
    assert met.eta_symmetry_residual(su2_double, out) <= 1e-12


def test_retraction_guard():
    g = np.diag([1.0 + 0.6, 1.0, -1.0])  # residual > 0.5
    assert met.involution_residual(g) >= 0.5
    with pytest.raises(RetractionDiverged):
        fl.involution_retract(g, 1e-10)


def test_flow_step_so3_identity():
    a = alg.so3(1.0)
    st = fl.FlowState(0.0, np.eye(3), 0.0)
    out = fl.flow_step(a, st, fl.FlowParams(dt=0.1, T=1.0))
    assert np.max(np.abs(out.G - np.eye(3))) <= 1e-12
    assert out.log_sigma == pytest.approx(-0.05, abs=1e-12)
    assert out.t == pytest.approx(0.1)


def test_flow_step_abelian_only_time_moves():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 3)
    st = fl.FlowState(0.0, gm.G, 0.2)
    out = fl.flow_step(a, st, fl.FlowParams(dt=0.05, T=1.0))
    assert np.array_equal(out.G, gm.G)
    assert out.log_sigma == st.log_sigma
    assert out.t == pytest.approx(0.05)


def test_flow_step_postcondition(su2_double, graph_metric_123):
    st = fl.FlowState(0.0, graph_metric_123.G, 0.0)
    params = fl.FlowParams(dt=1e-2, T=1.0, retract_tol=1e-10)
    out = fl.flow_step(su2_double, st, params)
    assert met.involution_residual(out.G) <= params.retract_tol


def test_run_flow_stationary_traces():
    a = alg.so3(1.0)
    tr = fl.run_flow(a, fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    assert tr.aborted is None
    gr = np.array(tr.GR)
    assert np.max(np.abs(gr - 1.0)) <= 1e-12
    slope = (tr.log_sigma[-1] - tr.log_sigma[0]) / (tr.t[-1] - tr.t[0])
    assert slope == pytest.approx(-0.5, abs=1e-10)
    assert np.max(np.abs(tr.final_G - np.eye(3))) <= 1e-10
    # lambda column equals GR over a point
    assert np.array_equal(tr.lam, tr.GR)
    # S = GR sigma^2
    s_ref = gr * np.exp(2 * np.array(tr.log_sigma))
    assert np.max(np.abs(np.array(tr.S) - s_ref)) <= 1e-12


def test_run_flow_monotone_short(su2_double, graph_metric_123):
    tr = fl.run_flow(
        su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=1e-3, T=0.5)
    )
    gr = np.array(tr.GR)
    assert np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1])))
    assert max(tr.involution_residual) <= 1e-10
    rc2 = np.array(tr.normRc2)
    defect = np.array(tr.monotonicity_defect)
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


def test_run_flow_underflow_carries_trace(su2_double, graph_metric_123):
    # the su(2) Ricci-type flow becomes extinct near t = 1.9; requesting a
    # longer horizon must abort by step underflow with the trace attached
    with pytest.raises(StepUnderflow) as exc_info:
        fl.run_flow(
            su2_double, fl.FlowState(0.0, graph_metric_123.G, 0.0), fl.FlowParams(dt=5e-3, T=10.0)
        )
    tr = exc_info.value.trace
    assert tr.aborted is not None and "underflow" in tr.aborted
    assert tr.t[-1] > 1.5
    gr = np.array(tr.GR)
    assert np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1])))


def test_euler_oracle(su2_double, graph_metric_123):
    # RK4 at dt and explicit Euler at dt/100 agree on G(T)
    st = fl.FlowState(0.0, graph_metric_123.G, 0.0)
    dt = 1e-3
    T = 0.5
    g_rk4 = fl.run_flow(su2_double, st, fl.FlowParams(dt=dt, T=T)).final_G
    g_euler = fl.euler_reference(su2_double, graph_metric_123.G, T, dt / 100)
    assert np.max(np.abs(g_rk4 - g_euler)) <= 1e-5


def test_soliton_residual_values(su2_double, graph_metric_123):
    assert fl.soliton_residual(alg.abelian(4, 2), met.random_strictly_positive_metric(alg.abelian(4, 2), 1).G) == 0.0
    assert fl.soliton_residual(alg.so3(1.0), np.eye(3)) <= 1e-13
    assert fl.soliton_residual(su2_double, graph_metric_123.G) > 0.1


def test_flow_params_validation():
    with pytest.raises(ValueError):
        fl.FlowParams(dt=-1.0)


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
    assert len(tr.t) == 51
    assert max(tr.involution_residual) <= 1e-10
    assert np.all(np.isfinite(tr.GR))


def test_run_flow_max_steps_marks_abort():
    tr = fl.run_flow(alg.so3(1.0), fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-3, T=1.0, max_steps=5))
    assert len(tr.t) == 6 and tr.t[-1] < 1.0
    assert "max_steps = 5" in tr.aborted and repr(tr.t[-1]) in tr.aborted


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
    n = len(tr.t) - 1
    assert n == 10 and tr.aborted is None
    assert tr.step_dt[1:] == pytest.approx([1e-2] * n)  # no halving
    assert len(riccis) == 4 * n + 1
    assert len(scalars) == 4 * n + 1


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
    out = fl.flow_step(su2_double, st0, fl.FlowParams(dt=1e-2, T=1.0))
    assert len(attempts) == 2 and out.t == pytest.approx(5e-3)
    at_start = [args for args in rhs_calls if np.array_equal(args[1].G, st0.G)]
    assert len(at_start) == 1
    assert len(rhs_calls) == 1 + 2 * 3


_SU2_DOUBLE = alg.cotangent_double(alg.su2_structure())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), dt=st.floats(1e-3, 5e-2), max_steps=st.integers(1, 50))
def test_run_flow_terminal_states(seed, dt, max_steps):
    # a run reaches T, or says it did not; either way GR never falls
    T = 0.5
    gm = met.random_strictly_positive_metric(_SU2_DOUBLE, seed)
    try:
        tr = fl.run_flow(_SU2_DOUBLE, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=dt, T=T, max_steps=max_steps))
    except StepUnderflow as exc:
        tr = exc.trace
    if tr.aborted is None:
        assert tr.t[-1] >= T - 1e-12
    else:
        assert tr.t[-1] < T
    assert len(tr.step_dt) == len(tr.t)
    gr = np.array(tr.GR)
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
    assert tr.aborted is None and np.max(np.abs(tr.final_G - g_inv)) >= 0.5  # the metric really moves
    assert np.max(np.abs(p @ tr.final_G @ p.T - tr.final_G)) <= 1e-12
    g0 = met.random_strictly_positive_metric(su2_double, 3).G
    params = fl.FlowParams(dt=1e-2, T=0.3)  # this metric's flow becomes extinct before t = 1
    moved = fl.run_flow(su2_double, fl.FlowState(0.0, p @ g0 @ p.T, 0.0), params).final_G
    ref = fl.run_flow(su2_double, fl.FlowState(0.0, g0, 0.0), params).final_G
    assert np.max(np.abs(ref - g0)) >= 0.1
    assert np.max(np.abs(moved - p @ ref @ p.T)) <= 1e-12 * np.max(np.abs(ref))
