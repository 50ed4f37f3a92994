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
Strict positivity of each accepted G is decided as ``metric.is_strictly_positive`` decides it,
but by Weyl's inequality (``weyl_radius``) one margin, one ``eigvalsh``, certifies every G
within half of it over |eta|_2 in Frobenius distance, so a run forms one per ~100 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import QuadraticLieAlgebra
from .curvature import moved_gram, ricci_closed_form, scalar_closed_form
from .errors import DegenerateMetric, RetractionDiverged
from .metric import GeneralizedPseudometric, involution_residual, mixed_norm_sq, positivity_margin
from .runs import Trace, check_max_steps, check_positive_finite, check_step, integrate

COLUMNS = {  # the trace's columns in row order, each with its meaning, as ``grf --help`` lists them
    "t": "time of the accepted step",
    "GR": "scalar curvature (closed form, divergence zero); over a point it is the unit-mass infimum lambda",
    "normRc2": "|GRc|^2_G = minus the full eta-contraction of GRc with itself",
    "log_sigma": "log of the half-density",
    "S": "Einstein-Hilbert value GR * sigma^2",
    "involution_residual": "max-abs of the recorded G^2 - Id: the retraction's residual on every row but the first",
}
# the columns a row must hold finite, or the run ends (``runs.integrate``): all but S, inf past log sigma ~ 355
FINITE = tuple(name for name in COLUMNS if name != "S")
# weyl_radius's round-off allowance per n^2 s, s = |eta|_2 |g|_F, u = 2^-53. In the radius |G|_F <= 1.5 |g|_F
# (the margin is at most s). Forming sym(eta G) errs by at most (n + 1) u |eta|_F |G|_F <= 2 n^2 u |eta|_2 |G|_F
# and eigvalsh by a small multiple, say 8, of n u |sym(eta G)|_2, so the margins at g and G are each within
# 15 n^2 u s of exact. The radius leaves half the margin, less a relative 1e-10 for the round-off of the distance
# and of |eta|_2 (eta is symmetric to 1e-12), so a margin above 61 n^2 u s < 2^6 n^2 u s leaves every G in the
# radius positive to eigvalsh, and 2^-42 keeps a 32-fold rest for the multiple
WEYL_ALLOWANCE = 2.0**-42


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
    so it reuses ``k1``.  A non-finite dG needs no scan of its own: it makes
    G + dG non-finite, which the retraction's first test rejects.
    """
    while True:
        check_step(dt, state.t)
        with np.errstate(over="ignore", invalid="ignore"):
            dg, ds = _rk4_increment(a, state, dt, k1)
        if not math.isfinite(ds):
            dt /= 2
            continue
        try:
            g_new, res = involution_retract(state.G + dg, params.retract_tol)
        except RetractionDiverged:
            dt /= 2
            continue
        return FlowState(state.t + dt, g_new, state.log_sigma + ds, res)


def weyl_radius(g: np.ndarray, margin: float, eta_norm: float) -> float:
    """The Frobenius radius about g, whose ``positivity_margin`` is ``margin``, inside which ``eigvalsh`` reads
    every G strictly positive; ``eta_norm`` is |eta|_2. Weyl: lambda_min(sym(eta G)) >= margin - |eta|_2 |G - g|_F,
    so it is half the margin over |eta|_2, or -inf, certifying nothing, for a margin not above WEYL_ALLOWANCE
    n^2 |eta|_2 |g|_F, where round-off could decide."""
    if margin > WEYL_ALLOWANCE * g.shape[0] ** 2 * eta_norm * float(np.linalg.norm(g)):
        return 0.5 * margin / eta_norm
    return -math.inf


def within_radius(g: np.ndarray, g_ref: np.ndarray, radius: float) -> bool:
    """Whether |g - g_ref|_F <= radius: the certificate of ``run_flow``'s positivity watch."""
    d = (g - g_ref).ravel()
    return math.sqrt(d @ d) <= radius


def run_flow(a: QuadraticLieAlgebra, init: FlowState, params: FlowParams) -> Trace:
    """Integrate to params.T with ``runs.integrate``, recording the row of every accepted state in ``COLUMNS`` order.

    The trace is returned whatever stops the run after its initial record: ``aborted`` is None when it reached T and
    otherwise says why not (step underflow, the ``max_steps`` budget, a row with inf or NaN outside S, or lost strict
    positivity, which is monitored when the initial metric has it: the theory guarantees its preservation only
    through smooth existence). An initial G that is no generalized pseudometric raises ValidationError.
    ``final_state`` is the last state reached.

    The positivity watch decides each accepted G as ``metric.is_strictly_positive`` does, but forms the margin
    (one ``eigvalsh``) only for a G outside the ``weyl_radius`` of the last G whose margin it formed; that G
    becomes the new reference. The su(2)-double run from graph(diag(1, 2, 3)) at dt 1e-3 to T 1 forms 11 margins
    in its 1000 steps.
    """
    watch_positivity = GeneralizedPseudometric.from_matrix(a, init.G).strictly_positive
    eta_norm = float(np.max(np.abs(np.linalg.eigvalsh(a.eta))))  # |eta|_2 of the symmetric eta; no SVD
    g_ref, radius = init.G, -math.inf  # the last G whose margin was formed, and the radius that margin certifies

    def observe(st: FlowState) -> tuple[tuple, tuple[np.ndarray, float]]:
        rhs = flow_rhs(a, st.G)
        # GR and GRc read back from the RHS (-2 GRc, -GR/2): power-of-two rescalings, so exact
        gr = -2.0 * rhs[1]
        rc2 = mixed_norm_sq(a, a.eta @ (-0.5 * rhs[0]))
        two_log = 2 * st.log_sigma
        if two_log <= 709.0:  # sigma^2 is finite: a product of Python floats gives inf and NaN silently
            s = gr * float(np.exp(two_log))
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # S = GR sigma^2 is inf past log sigma ~ 355
                s = float(gr * np.exp(two_log))
        return (st.t, gr, rc2, st.log_sigma, s, st.residual), rhs

    def advance(st: FlowState, dt: float, k1: tuple[np.ndarray, float]) -> FlowState:
        nonlocal g_ref, radius
        new = flow_step(a, st, params, dt, k1)
        if watch_positivity and not within_radius(new.G, g_ref, radius):
            margin = positivity_margin(a, new.G)
            if not margin > 0:
                raise DegenerateMetric(f"strict positivity lost at t = {new.t}")
            g_ref, radius = new.G, weyl_radius(new.G, margin, eta_norm)
        return new

    start = FlowState(init.t, init.G.copy(), init.log_sigma, involution_residual(init.G))
    return integrate(start, params.T, params.max_steps, tuple(COLUMNS), FINITE, observe, lambda rhs: rhs,
                     lambda rhs: params.dt, advance)


def monotonicity_defect(trace: Trace) -> list[float]:
    """|dGR/dt - |GRc|^2_G| along a flow trace, dGR/dt against each step's trapezoidal mean: 0.0 on the first row."""
    t, gr, rc2 = (np.array(trace[name]) for name in ("t", "GR", "normRc2"))
    with np.errstate(all="ignore"):
        return [0.0, *np.abs(np.diff(gr) / np.diff(t) - 0.5 * (rc2[:-1] + rc2[1:])).tolist()]
