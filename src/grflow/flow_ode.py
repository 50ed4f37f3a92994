"""Generalized Ricci flow ODE on a quadratic Lie algebra.

dG/dt = -2 GRc(G, 0) and d(log sigma)/dt = -GR(G, 0)/2: over a point every
half-density induces the zero divergence, so the sigma equation decouples
and only feeds the diagnostics.  Time stepping is classical RK4 followed by a
Newton-Schulz retraction onto the involution manifold, which is a polynomial
in G and therefore preserves eta-symmetry exactly.  Each accepted state forms
each quantity once: the right-hand side there gives the trace GR and
|GRc|^2_G and the next step its first stage (first same as last), and the
residual max|G^2 - Id| that ended the retraction is the trace's
``involution_residual``.  A row records only its own state, S = GR sigma^2 included; the step
diagnostic ``monotonicity_defect``, which reads two rows, is formed from a trace after the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadraticLieAlgebra
from .curvature import moved_gram, ricci_closed_form, scalar_closed_form
from .errors import DegenerateMetric, RetractionDiverged
from .metric import GeneralizedPseudometric, involution_residual, is_strictly_positive, mixed_norm_sq
from .runs import Trace, check_max_steps, check_positive_finite, check_step, integrate

COLUMNS = ("t", "GR", "normRc2", "log_sigma", "S", "lambda", "involution_residual")


@dataclass
class FlowState:
    t: float
    G: np.ndarray
    log_sigma: float = 0.0
    residual: float | None = None  # involution_residual(G); set on every state of a run

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


def flow_rhs(a: QuadraticLieAlgebra, g: np.ndarray) -> tuple[np.ndarray, float]:
    """(dG, dlog_sigma) = (-2 GRc(G, 0), -GR(G, 0)/2) at ``g`` from the point-base closed forms.

    Both closed forms are handed the one moved Gram contraction T formed here.
    The dual routes ``curvature.ricci`` and ``curvature.scalar`` are the
    independent oracles the tests compare these against.
    """
    t = moved_gram(a, g)
    return -2.0 * ricci_closed_form(a, g, t), -0.5 * scalar_closed_form(a, g, None, t)


def involution_retract(G: np.ndarray, retract_tol: float, max_iter: int = 20) -> tuple[np.ndarray, float]:
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


def flow_step(a: QuadraticLieAlgebra, state: FlowState, params: FlowParams, dt: float,
              k1: tuple[np.ndarray, float]) -> FlowState:
    """One accepted step of at most dt: RK4 increment, then involution retraction.

    ``k1`` is ``flow_rhs(a, state.G)``.  The step is halved whenever the
    increment is not finite or the retraction fails, down to
    ``runs.check_step``'s floor; a halved retry starts from the same state,
    so it reuses ``k1``.
    """
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


def run_flow(a: QuadraticLieAlgebra, init: FlowState, params: FlowParams) -> Trace:
    """Integrate to params.T with ``runs.integrate``, recording the row of every accepted state in ``COLUMNS`` order.

    The trace is returned whatever stops the run after its initial record: ``aborted`` is None when it reached T and
    otherwise says why not (step underflow, the ``max_steps`` budget, or lost strict positivity, which is monitored
    when the initial metric has it: the theory guarantees its preservation only through smooth existence). An
    initial G that is no generalized pseudometric raises ValidationError. ``final_state`` is the last state reached.
    """
    watch_positivity = GeneralizedPseudometric.from_matrix(a, init.G).strictly_positive

    def observe(st: FlowState) -> tuple[tuple, tuple[np.ndarray, float]]:
        rhs = flow_rhs(a, st.G)
        # GR and GRc read back from the RHS (-2 GRc, -GR/2): power-of-two rescalings, so exact
        gr = -2.0 * rhs[1]
        rc2 = mixed_norm_sq(a, a.eta @ (-0.5 * rhs[0]))
        with np.errstate(over="ignore", invalid="ignore"):  # S = GR sigma^2 is inf past log sigma ~ 355
            s = float(gr * np.exp(2 * st.log_sigma))
        # over a point the unit-mass infimum lambda is GR itself
        return (st.t, gr, rc2, st.log_sigma, s, gr, st.residual), rhs

    def advance(st: FlowState, dt: float, k1: tuple[np.ndarray, float]) -> FlowState:
        new = flow_step(a, st, params, dt, k1)
        if watch_positivity and not is_strictly_positive(a, new.G):
            raise DegenerateMetric(f"strict positivity lost at t = {new.t}")
        return new

    start = FlowState(init.t, init.G.copy(), init.log_sigma, involution_residual(init.G))
    return integrate(start, params.T, params.max_steps, COLUMNS, observe, lambda rhs: rhs, lambda rhs: params.dt,
                     advance)


def monotonicity_defect(trace: Trace) -> list[float]:
    """|dGR/dt - |GRc|^2_G| along a flow trace, dGR/dt against each step's trapezoidal mean: 0.0 on the first row."""
    t, gr, rc2 = (np.array(trace[name]) for name in ("t", "GR", "normRc2"))
    with np.errstate(all="ignore"):
        return [0.0, *np.abs(np.diff(gr) / np.diff(t) - 0.5 * (rc2[:-1] + rc2[1:])).tolist()]
