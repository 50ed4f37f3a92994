"""Generalized Ricci flow ODE on a quadratic Lie algebra.

dG/dt = -2 GRc(G, 0) and d(log sigma)/dt = -GR(G, 0)/2: over a point every
half-density induces the zero divergence, so the sigma equation decouples
and only feeds the diagnostics.  Time stepping is classical RK4 followed by a
Newton-Schulz retraction onto the involution manifold, which is a polynomial
in G and therefore preserves eta-symmetry exactly.  Each accepted state forms
each quantity once: the right-hand side there gives the trace GR and
|GRc|^2_G and the next step its first stage (first same as last), and the
residual max|G^2 - Id| that ended the retraction is the trace's
``involution_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import QuadraticLieAlgebra
from .curvature import moved_gram, ricci_closed_form, scalar_closed_form
from .errors import DegenerateMetric, RetractionDiverged
from .metric import GeneralizedPseudometric, involution_residual, is_strictly_positive, mixed_norm_sq
from .runs import check_max_steps, check_positive_finite, check_step, integrate


@dataclass
class FlowState:
    t: float
    G: np.ndarray
    log_sigma: float = 0.0
    residual: float | None = None  # involution_residual(G) from the retraction that produced G, if one did

    def __post_init__(self):
        self.G = np.asarray(self.G, dtype=float)


@dataclass
class FlowParams:
    dt: float = 1e-3
    T: float = 10.0
    retract_tol: float = 1e-10
    max_steps: int = 10_000_000

    def __post_init__(self):
        check_positive_finite(dt=self.dt, T=self.T, retract_tol=self.retract_tol)
        check_max_steps(self.max_steps)


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


def flow_rhs(a: QuadraticLieAlgebra, g: np.ndarray) -> tuple[np.ndarray, float]:
    """(dG, dlog_sigma) = (-2 GRc(G, 0), -GR(G, 0)/2) at ``g`` from the point-base closed forms.

    Both closed forms are handed the one moved Gram contraction T formed here.
    The dual routes ``curvature.ricci`` and ``curvature.scalar`` are the
    independent oracles the tests compare these against.
    """
    t = moved_gram(a, g)
    return -2.0 * ricci_closed_form(a, g, t), -0.5 * scalar_closed_form(a, g, None, t)


def involution_retract(G: np.ndarray, retract_tol: float = 1e-10,
                       max_iter: int = 20) -> tuple[np.ndarray, float]:
    """Newton-Schulz iteration G <- (3G - G^3)/2 onto the involution manifold, as (G, involution_residual(G)).

    Quadratically convergent for ||G^2 - Id|| < 1; the guard at 0.5 keeps a
    safety margin.  Being a polynomial in G it preserves eta-symmetry exactly
    and cannot change the eigenbundle ranks.  The residual returned is the one
    that decided convergence, so a caller need not form G^2 - Id again.
    """
    g = np.asarray(G, dtype=float)
    res = involution_residual(g)
    if not res < 0.5:  # also catches inf/nan
        raise RetractionDiverged(f"involution residual {res:.3e} outside the contraction basin")
    for _ in range(max_iter):
        if res <= retract_tol:
            return g, res
        g = 0.5 * (3.0 * g - g @ g @ g)
        new_res = involution_residual(g)
        if not np.isfinite(new_res) or new_res > 0.5 * res:
            raise RetractionDiverged(f"retraction stalled at residual {new_res:.3e}")
        res = new_res
    if res <= retract_tol:
        return g, res
    raise RetractionDiverged(f"residual {res:.3e} after {max_iter} iterations")


def _rk4_increment(a, state, dt, k1):
    """RK4 increment (dG, dlog_sigma) over dt; ``k1`` is ``flow_rhs`` at ``state.G``."""
    k2 = flow_rhs(a, state.G + dt / 2 * k1[0])
    k3 = flow_rhs(a, state.G + dt / 2 * k2[0])
    k4 = flow_rhs(a, state.G + dt * k3[0])
    dg = dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    ds = dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return dg, ds


def flow_step(a: QuadraticLieAlgebra, state: FlowState, params: FlowParams, dt: float | None = None,
              k1: tuple[np.ndarray, float] | None = None) -> FlowState:
    """One accepted step: RK4 increment, then involution retraction.

    ``k1`` is ``flow_rhs(a, state.G)`` when the caller already has it.  The step
    is halved whenever the increment is not finite or the retraction fails,
    down to ``runs.check_step``'s floor; a halved retry starts from the same
    state, so it reuses ``k1``.
    """
    dt = params.dt if dt is None else dt
    k1 = flow_rhs(a, state.G) if k1 is None else k1
    while True:
        check_step(dt, state.t)
        with np.errstate(over="ignore", invalid="ignore"):
            dg, ds = _rk4_increment(a, state, dt, k1)
        if not (np.all(np.isfinite(dg)) and np.isfinite(ds)):
            dt /= 2
            continue
        try:
            g_new, res = involution_retract(state.G + dg, params.retract_tol)
        except RetractionDiverged:
            dt /= 2
            continue
        return FlowState(state.t + dt, g_new, state.log_sigma + ds, res)


def run_flow(a: QuadraticLieAlgebra, init: FlowState, params: FlowParams) -> FlowTrace:
    """Integrate to params.T with ``runs.integrate``, recording diagnostics at every accepted step.

    The trace is returned whatever stops the run after its initial record: ``aborted`` is None when it reached T and
    otherwise says why not (step underflow, the ``max_steps`` budget, or lost strict positivity, which is monitored
    when the initial metric has it: the theory guarantees its preservation only through smooth existence). An
    initial G that is no generalized pseudometric raises ValidationError. ``final_G`` is the last state reached.
    """
    watch_positivity = GeneralizedPseudometric.from_matrix(a, init.G).strictly_positive

    trace = FlowTrace()

    def observe(st: FlowState) -> tuple[np.ndarray, float]:
        rhs = flow_rhs(a, st.G)
        # GR and GRc read back from the RHS (-2 GRc, -GR/2): power-of-two rescalings, so exact
        gr = -2.0 * rhs[1]
        rc2 = mixed_norm_sq(a, a.eta @ (-0.5 * rhs[0]))
        step_dt = st.t - trace.t[-1] if trace.t else 0.0
        # dGR/dt = |GRc|^2_G against the trapezoidal mean over the step
        defect = abs((gr - trace.GR[-1]) / step_dt - 0.5 * (trace.normRc2[-1] + rc2)) if trace.t else 0.0
        sigma_sq = float(np.exp(2 * st.log_sigma))
        trace.t.append(st.t)
        trace.GR.append(gr)
        trace.normRc2.append(rc2)
        trace.log_sigma.append(st.log_sigma)
        trace.S.append(gr * sigma_sq)
        trace.lam.append(gr)  # over a point the unit-mass infimum is GR itself
        trace.involution_residual.append(involution_residual(st.G) if st.residual is None else st.residual)
        # the Frobenius norm of GRc in an adapted frame of a strictly positive metric; where eta is
        # indefinite on an eigenspace every such norm depends on the frame, so none is reported
        trace.soliton_residual.append(float(np.sqrt(max(rc2, 0.0))) if watch_positivity else float("nan"))
        trace.monotonicity_defect.append(defect)
        trace.step_dt.append(step_dt)
        return rhs

    def advance(st: FlowState, dt: float, k1: tuple[np.ndarray, float]) -> FlowState:
        new = flow_step(a, st, params, dt, k1)
        if watch_positivity and not is_strictly_positive(a, new.G):
            raise DegenerateMetric(f"strict positivity lost at t = {new.t}")
        return new

    state, trace.aborted = integrate(FlowState(init.t, init.G.copy(), init.log_sigma), params.T, params.max_steps,
                                     observe, lambda rhs: rhs, lambda rhs: params.dt, advance)
    trace.final_G = state.G
    return trace
