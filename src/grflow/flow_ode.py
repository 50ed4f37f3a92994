"""Generalized Ricci flow ODE on a quadratic Lie algebra.

dG/dt = -2 GRc(G, 0) and d(log sigma)/dt = -GR(G, 0)/2: over a point every
half-density induces the zero divergence, so the sigma equation decouples
and only feeds the diagnostics.  Time stepping is classical RK4 followed by a
Newton-Schulz retraction onto the involution manifold, which is a polynomial
in G and therefore preserves eta-symmetry exactly.  The right-hand side at
each accepted state is evaluated once: the trace reads GR and |GRc|^2_G from
it, and the next step reuses it as its first stage (first same as last).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import QuadraticLieAlgebra
from .curvature import ricci_closed_form, scalar_closed_form
from .errors import DegenerateSubspace, RetractionDiverged, StepUnderflow
from .metric import (
    GeneralizedPseudometric,
    _as_matrix,
    adapted_frame,
    involution_residual,
    mixed_norm_sq,
)


@dataclass
class FlowState:
    t: float
    G: np.ndarray
    log_sigma: float = 0.0

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)


@dataclass
class FlowParams:
    dt: float = 1e-3
    T: float = 10.0
    retract_tol: float = 1e-10
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")


@dataclass
class FlowTrace:
    """Per-accepted-step diagnostic series of a flow run."""

    t: list[float] = field(default_factory=list)
    GR: list[float] = field(default_factory=list)
    normRc2: list[float] = field(default_factory=list)
    log_sigma: list[float] = field(default_factory=list)
    S: list[float] = field(default_factory=list)
    lam: list[float] = field(default_factory=list)
    involution_residual: list[float] = field(default_factory=list)
    soliton_residual: list[float] = field(default_factory=list)
    monotonicity_defect: list[float] = field(default_factory=list)
    step_dt: list[float] = field(default_factory=list)
    aborted: str | None = None
    final_G: np.ndarray | None = None

    COLUMNS = ("t", "GR", "normRc2", "log_sigma", "S", "lambda", "involution_residual", "soliton_residual")

    def rows(self):
        return zip(self.t, self.GR, self.normRc2, self.log_sigma, self.S, self.lam, self.involution_residual,
                   self.soliton_residual)


def flow_rhs(a: QuadraticLieAlgebra, state: FlowState) -> tuple[np.ndarray, float]:
    """(dG, dlog_sigma) = (-2 GRc(G, 0), -GR(G, 0)/2) from the point-base closed forms.

    The dual routes ``curvature.ricci`` and ``curvature.scalar`` are the
    independent oracles the tests compare these against.
    """
    g = state.G
    return -2.0 * ricci_closed_form(a, g), -0.5 * scalar_closed_form(a, g, None)


def involution_retract(G: np.ndarray, retract_tol: float = 1e-10, max_iter: int = 20) -> np.ndarray:
    """Newton-Schulz iteration G <- (3G - G^3)/2 onto the involution manifold.

    Quadratically convergent for ||G^2 - Id|| < 1; the guard at 0.5 keeps a
    safety margin.  Being a polynomial in G it preserves eta-symmetry exactly
    and cannot change the eigenbundle ranks.
    """
    g = np.asarray(G, dtype=float)
    res = involution_residual(g)
    if not res < 0.5:  # also catches inf/nan
        raise RetractionDiverged(f"involution residual {res:.3e} outside the contraction basin")
    for _ in range(max_iter):
        if res <= retract_tol:
            return g
        g = 0.5 * (3.0 * g - g @ g @ g)
        new_res = involution_residual(g)
        if not np.isfinite(new_res) or new_res > 0.5 * res:
            raise RetractionDiverged(f"retraction stalled at residual {new_res:.3e}")
        res = new_res
    if res <= retract_tol:
        return g
    raise RetractionDiverged(f"residual {res:.3e} after {max_iter} iterations")


def _rk4_increment(a, state, dt, k1):
    """RK4 increment (dG, dlog_sigma) over dt; ``k1`` is ``flow_rhs`` at ``state``."""
    k2 = flow_rhs(a, FlowState(state.t + dt / 2, state.G + dt / 2 * k1[0], state.log_sigma + dt / 2 * k1[1]))
    k3 = flow_rhs(a, FlowState(state.t + dt / 2, state.G + dt / 2 * k2[0], state.log_sigma + dt / 2 * k2[1]))
    k4 = flow_rhs(a, FlowState(state.t + dt, state.G + dt * k3[0], state.log_sigma + dt * k3[1]))
    dg = dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    ds = dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return dg, ds


def flow_step(a: QuadraticLieAlgebra, state: FlowState, params: FlowParams, dt: float | None = None,
              k1: tuple[np.ndarray, float] | None = None) -> FlowState:
    """One accepted step: RK4 increment, then involution retraction.

    ``k1`` is ``flow_rhs(a, state)`` when the caller already has it.  The step
    is halved whenever the increment is not finite or the retraction fails;
    a halved retry starts from the same state, so it reuses ``k1``.
    """
    dt = params.dt if dt is None else dt
    k1 = flow_rhs(a, state) if k1 is None else k1
    while True:
        if dt < 1e-14:
            raise StepUnderflow(f"time step underflow at t = {state.t}")
        with np.errstate(over="ignore", invalid="ignore"):
            dg, ds = _rk4_increment(a, state, dt, k1)
        if not (np.all(np.isfinite(dg)) and np.isfinite(ds)):
            dt /= 2
            continue
        try:
            g_new = involution_retract(state.G + dg, params.retract_tol)
        except RetractionDiverged:
            dt /= 2
            continue
        return FlowState(state.t + dt, g_new, state.log_sigma + ds)


def soliton_residual(a: QuadraticLieAlgebra, G) -> float:
    """Frobenius norm of GRc(G, 0) in an adapted frame.

    Zero exactly at solitons: over a point the lambda-minimizing half-density
    is the normalized constant, so the condition is GRc(G, 0) = 0.
    """
    g = _as_matrix(G)
    grc_dd = a.eta @ ricci_closed_form(a, g)
    fr = adapted_frame(a, g)
    grc_ad = fr.Q.T @ grc_dd @ fr.Q
    return float(np.linalg.norm(grc_ad))


def run_flow(a: QuadraticLieAlgebra, init: FlowState, params: FlowParams) -> FlowTrace:
    """Integrate to params.T recording diagnostics at every accepted step.

    Strict positivity of the initial metric is monitored: if it fails at a
    later step the run stops and the trace carries the abort reason (the
    theory guarantees preservation only through smooth existence).  A run
    stopped by ``max_steps`` before T also returns with ``aborted`` set.
    An initial G that is no generalized pseudometric raises a validation error.
    """
    watch_positivity = GeneralizedPseudometric.from_matrix(a, init.G).strictly_positive

    trace = FlowTrace()
    state = FlowState(init.t, init.G.copy(), init.log_sigma)

    def soliton_value(g, rc2):
        if watch_positivity:
            # in an adapted frame of a strictly positive metric the Frobenius
            # norm of GRc equals sqrt(|GRc|^2_G)
            return float(np.sqrt(max(rc2, 0.0)))
        try:
            return soliton_residual(a, g)
        except DegenerateSubspace:
            return float("nan")

    def record(st: FlowState, rhs: tuple[np.ndarray, float], step_dt: float):
        # GR and GRc read back from the RHS (-2 GRc, -GR/2): power-of-two rescalings, so exact
        gr = -2.0 * rhs[1]
        rc2 = mixed_norm_sq(a, a.eta @ (-0.5 * rhs[0]))
        # dGR/dt = |GRc|^2_G against the trapezoidal mean over the step
        defect = abs((gr - trace.GR[-1]) / step_dt - 0.5 * (trace.normRc2[-1] + rc2)) if trace.t else 0.0
        sigma_sq = float(np.exp(2 * st.log_sigma))
        trace.t.append(st.t)
        trace.GR.append(gr)
        trace.normRc2.append(rc2)
        trace.log_sigma.append(st.log_sigma)
        trace.S.append(gr * sigma_sq)
        trace.lam.append(gr)  # over a point the unit-mass infimum is GR itself
        trace.involution_residual.append(involution_residual(st.G))
        trace.soliton_residual.append(soliton_value(st.G, rc2))
        trace.monotonicity_defect.append(defect)
        trace.step_dt.append(step_dt)

    k1 = flow_rhs(a, state)
    record(state, k1, 0.0)
    steps = 0
    while state.t < params.T - 1e-12 and steps < params.max_steps:
        dt = min(params.dt, params.T - state.t)
        try:
            new_state = flow_step(a, state, params, dt, k1)
        except StepUnderflow as exc:
            trace.aborted = f"step underflow at t = {state.t}"
            trace.final_G = state.G
            exc.trace = trace
            raise
        if watch_positivity:
            pairing = a.eta @ new_state.G
            if np.min(np.linalg.eigvalsh((pairing + pairing.T) / 2)) <= 0:
                trace.aborted = f"strict positivity lost at t = {new_state.t}"
                break
        k1 = flow_rhs(a, new_state)
        record(new_state, k1, new_state.t - state.t)
        state = new_state
        steps += 1
    if trace.aborted is None and state.t < params.T - 1e-12:
        trace.aborted = (f"step budget max_steps = {params.max_steps} used up "
                         f"at t = {state.t!r} < T = {params.T!r}")
    trace.final_G = state.G
    return trace


def euler_reference(a: QuadraticLieAlgebra, G0: np.ndarray, T: float, dt: float, retract_tol: float = 1e-10) -> np.ndarray:
    """Explicit-Euler integration of the metric equation (oracle for RK4)."""
    g = np.asarray(G0, dtype=float).copy()
    t = 0.0
    while t < T - 1e-12:
        step = min(dt, T - t)
        g = involution_retract(g - 2.0 * step * ricci_closed_form(a, g), retract_tol)
        t += step
    return g
