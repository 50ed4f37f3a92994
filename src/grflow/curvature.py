"""Generalized Riemann, Ricci, and scalar curvature over a point.

Index placement: ``riemann`` returns the fully covariant GRm_{mnrs} in the
slot order (w, z, x, y) of the defining quadratic form, so the symmetries
read GRm = GRm_{[mn]rs} = GRm_{mn[rs]} = GRm_{srnm}.  Matrix-valued curvature
ops return endomorphisms (one index up, one down); lower with eta when a
bilinear form is needed.

Ricci and scalar computed by independent routes (tensor contraction, bracket
trace of ad products, closed form) must agree; ``ricci`` and ``scalar`` raise
RouteDisagreement otherwise, a NaN on either route included.  The closed forms
are matrix products of the Gram contraction S and its G-moved copy T:
GRc = K - G K G with K = (S - T)/4.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import QuadraticLieAlgebra, Tensor
from .connection import Divergence, cov_d, divergence_vector, levi_civita, mixed_christoffel, torsion
from .errors import RouteDisagreement
from .metric import lie_derivative_metric, mixed_norm_sq, projectors

ROUTE_TOL = 1e-10


def riemann(a: QuadraticLieAlgebra, gamma: np.ndarray) -> Tensor:
    """Generalized Riemann tensor of a torsion-free connection (all down).

    GRm(w,z,x,y) = 1/2 w^d y^b (x^a [D_a,D_b] z_d + z^a [D_a,D_d] x_b
    - (D_a x_b)(D^a z_d)), evaluated on frame vectors.
    """
    tor = torsion(a, gamma)
    scale = max(1.0, float(np.max(np.abs(gamma))), float(np.max(np.abs(a.c))))
    if not np.max(np.abs(tor)) <= 1e-8 * scale:  # a NaN torsion warns too
        warnings.warn("riemann called with a connection of non-negligible torsion", stacklevel=2)
    n = a.n
    m = mixed_christoffel(a, gamma)
    low = a.eta @ m  # M(a) with its value index lowered: low[a, d, e] = eta_dg M(a)^g_e
    # Commutator kernel on constant vectors, lowered: ([D_a, D_b] e_n)_d = (low(a) M(b) - low(b) M(a))_dn.
    comm = (low.reshape(n * n, n) @ m.transpose(1, 0, 2).reshape(n, n * n)).reshape((n,) * 4)  # slots (a, d, b, n)
    comm = comm.transpose(0, 2, 1, 3) - comm.transpose(2, 0, 1, 3)
    delta = m - m.transpose(2, 1, 0)  # M(a)^e_b - M(b)^e_a in slots (a, e, b)
    corr = delta.transpose(0, 2, 1).reshape(n * n, n) @ low.reshape(n, n * n)  # slots (a b, d n)
    k_down = comm - corr.reshape((n,) * 4)  # ([D_a,D_b] e_n)_d in slots (a, b, d, n)

    term1 = k_down.transpose(2, 3, 0, 1)  # (m,n,r,s) <- k_down[r,s,m,n]
    term2 = k_down.transpose(1, 0, 3, 2)  # (m,n,r,s) <- k_down[n,m,s,r]
    flat = gamma.reshape(n, n * n)
    term3 = -(flat.T @ (a.eta_inv.T @ flat)).reshape((n,) * 4).transpose(0, 1, 3, 2)  # -eta^ab gamma_asr gamma_bmn
    return Tensor(0.5 * (term1 + term2 + term3))


def full_ricci(a: QuadraticLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Full Ricci endomorphism fGRc^g_b = GRm^{ag}{}_{ab} (eta-symmetric)."""
    return _contract_riemann(a, riemann(a, gamma).data)


def _contract_riemann(a: QuadraticLieAlgebra, grm: np.ndarray) -> np.ndarray:
    return a.eta_inv @ np.tensordot(a.eta_inv, grm, axes=([0, 1], [0, 2]))  # eta^mr GRm_mnrs, raised


def _ricci_from_full(g: np.ndarray, fgrc: np.ndarray) -> np.ndarray:
    return fgrc - g @ fgrc @ g


def ricci_bracket_route(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None) -> np.ndarray:
    """Ricci via the bracket-trace formula (independent of any connection).

    <v_-, GRc u_+> = <d, G [v_-, u_+]> - 2 Tr_{V+} [[., v_-]_-, u_+]_+,
    valid over a point for any linear divergence.  Returns an endomorphism.
    """
    dvec = divergence_vector(d, a.n)
    p_plus, p_minus = projectors(g)
    adm = a.c_mixed.transpose(0, 2, 1)  # adm[u] @ y = [e_u, y]
    b1 = np.einsum("s,st,mtn->mn", dvec, g, adm)
    b2 = -2.0 * np.einsum("mlj,njl->mn", adm @ p_plus, adm @ p_minus)  # -2 Tr(ad_m P+ ad_n P-)
    s = p_minus.T @ (b1 + b2) @ p_plus
    return a.eta_inv @ (s + s.T)


def _route_gap(x, ref) -> float:
    """max|x - ref| / (1 + max|x|), the gap of a route's value ``x`` to its reference; NaN if either is NaN."""
    return float(np.max(np.abs(x - ref))) / (1.0 + float(np.max(np.abs(x))))


def _agreed(what: str, x, ref):
    """``x`` if it agrees with ``ref`` to ``ROUTE_TOL``; a NaN gap disagrees."""
    gap = _route_gap(x, ref)
    if not gap <= ROUTE_TOL:
        raise RouteDisagreement(f"{what} routes disagree: relative gap {gap:.3e}")
    return x


def ricci(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None,
          D: np.ndarray | None = None) -> np.ndarray:
    """Ricci endomorphism GRc = fGRc - G fGRc G for D (Christoffels gamma) in LC(G, div).

    Cross-checks the contraction route against the bracket-trace formula and
    raises RouteDisagreement unless they agree to 1e-10 (1 + |GRc|).
    """
    if D is None:
        D = levi_civita(a, g, d)
    return _agreed("Ricci", _ricci_from_full(g, full_ricci(a, D)), ricci_bracket_route(a, g, d))


def moved_gram(a: QuadraticLieAlgebra, g: np.ndarray) -> np.ndarray:
    """T_ab = c^{adz} G^g_d G^e_z c_{bge}: the Gram contraction S_ab = c^{agd} c_{bgd} (``a.gram_cc``, T at
    G = Id) with c's last two slots moved by G, slice b of the moved c being G^T c_b G."""
    return a.c_up.reshape(a.n, -1) @ (g.T @ a.c @ g).reshape(a.n, -1).T


def ricci_closed_form(a: QuadraticLieAlgebra, g: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """Point-base closed form of the Ricci endomorphism (divergence zero).

    GRc^a_b = 1/4 (c^{agd} c_{bgd} - G^a_g G^d_b c^{gez} c_{dez}
    - G^g_d G^e_z c^{adz} c_{bge} + G^a_g G^d_b G^h_e G^t_z c^{gez} c_{dht}),
    all contractions through eta.  The 2nd and 4th terms are G (1st) G and
    G (3rd) G, so GRc = K - G K G with K = (S - T)/4, S and T as in ``moved_gram``;
    ``t`` is ``moved_gram(a, g)`` when the caller already has it.
    """
    k = 0.25 * (a.gram_cc - (moved_gram(a, g) if t is None else t))
    return k - g @ k @ g


def scalar_closed_form(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None,
                       t: np.ndarray | None = None) -> float:
    """Scalar curvature from the admissible-frame formula.

    GR = -<G e, e> + 1/4 G^a_d c_{abg} c^{dbg}
    - 1/12 G^a_d G^b_e G^g_z c_{abg} c^{dez}  (anchor terms vanish over a point), with e the vector of
    the divergence.  The cubic term is Tr(G T), so GR = Tr(G (S/4 - T/12)) - <G e, e> (``moved_gram``);
    ``t`` is ``moved_gram(a, g)`` when the caller already has it, and d = None skips the zero <G e, e>.
    """
    gr = float(np.vdot(g.T, a.gram_cc / 4 - (moved_gram(a, g) if t is None else t) / 12))
    if d is None:
        return gr
    return gr - float(d.d @ g @ (a.eta_inv @ d.d))


def scalar(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None) -> float:
    """Scalar curvature GR = Tr(G fGRc) via the Riemann trace route.

    Raises RouteDisagreement unless it agrees with the closed form to 1e-10 (1 + |GR|).
    """
    val = float(np.trace(g @ full_ricci(a, levi_civita(a, g, d))))
    return _agreed("scalar", val, scalar_closed_form(a, g, d))


def dirac_square(a: QuadraticLieAlgebra) -> float:
    """Constant by which the generating Dirac operator squares: -GR(Id, 0)/8."""
    return -scalar_closed_form(a, np.eye(a.n), None) / 8.0


def ricci_divergence_shift_check(a: QuadraticLieAlgebra, g: np.ndarray, e) -> float:
    """Residual of GRc(G, <e,.>) - GRc(G, 0) + 1/2 L_{Ge} G (max-abs) for a vector ``e``."""
    e = np.asarray(e, dtype=float)
    d = divergence_from_vector(a, e)
    shifted = ricci(a, g, d)
    base = ricci(a, g, None)
    lie = lie_derivative_metric(a, g, g @ e)
    return float(np.max(np.abs(shifted - base + 0.5 * lie)))


def divergence_from_vector(a: QuadraticLieAlgebra, e: np.ndarray) -> Divergence:
    """Divergence <e, .> determined by a vector: d_b = eta_{ba} e^a."""
    return Divergence(a.eta @ np.asarray(e, dtype=float))


def scalar_divergence_shift(a: QuadraticLieAlgebra, g: np.ndarray, e) -> tuple[float, float]:
    """(GR(G, <e,.>) - GR(G, 0), -|e|^2_G) which must agree over a point."""
    e = np.asarray(e, dtype=float)
    d = divergence_from_vector(a, e)
    lhs = scalar_closed_form(a, g, d) - scalar_closed_form(a, g, None)
    rhs = -float(e @ a.eta @ g @ e)
    return lhs, rhs


def _bianchi_inputs(a: QuadraticLieAlgebra, g: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(mixed Christoffels of D in LC(G, 0), GRc, 1 + max|GRc|) for the two Bianchi residuals."""
    D = levi_civita(a, g, None)
    grc = ricci(a, g, None, D=D)
    return mixed_christoffel(a, D), grc, 1.0 + float(np.max(np.abs(grc)))


def bianchi_residual(a: QuadraticLieAlgebra, g: np.ndarray) -> float:
    """max_g |G^a_b D_a GRc^b_g| for D in LC(G, 0); the right side 1/2 D_g GR
    vanishes over a point.  Normalized by (1 + |GRc|)."""
    m, grc, scale = _bianchi_inputs(a, g)
    res = np.einsum("ab,abg->g", g, cov_d(m, grc, ("u", "d")))
    return float(np.max(np.abs(res))) / scale


def bianchi_divergence_residual(a: QuadraticLieAlgebra, g: np.ndarray) -> float:
    """Point-base simplification D_a GRc^{ab} = 0 for any LC connection."""
    m, grc, scale = _bianchi_inputs(a, g)
    res = np.einsum("aab->b", cov_d(m, grc @ a.eta_inv, ("u", "u")))  # D_a GRc^{ab}
    return float(np.max(np.abs(res))) / scale


@dataclass
class CurvatureReport:
    """Bundle of curvature data plus internal-consistency residuals."""

    riemann: Tensor
    full_ricci: np.ndarray
    ricci: np.ndarray
    scalar: float
    norm_ricci_sq: float
    symmetry_residual: float
    mixed_trace_residual: float
    route_residual_ricci: float
    route_residual_scalar: float

    def as_dict(self) -> dict:
        return {
            "riemann": self.riemann.data.tolist(),
            "full_ricci": self.full_ricci.tolist(),
            "ricci": self.ricci.tolist(),
            "scalar": self.scalar,
            "norm_ricci_sq": self.norm_ricci_sq,
            "residuals": {
                "riemann_symmetry": self.symmetry_residual,
                "mixed_trace": self.mixed_trace_residual,
                "ricci_routes": self.route_residual_ricci,
                "scalar_routes": self.route_residual_scalar,
            },
        }


def riemann_symmetry_residual(a: QuadraticLieAlgebra, grm: np.ndarray) -> float:
    scale = 1.0 + float(np.max(np.abs(grm)))
    r1 = np.max(np.abs(grm + grm.transpose(1, 0, 2, 3)))
    r2 = np.max(np.abs(grm + grm.transpose(0, 1, 3, 2)))
    r3 = np.max(np.abs(grm - grm.transpose(3, 2, 1, 0)))
    return float(max(r1, r2, r3)) / scale


def mixed_trace_residual(a: QuadraticLieAlgebra, g: np.ndarray, grm: np.ndarray) -> float:
    """GRm^{a ahat}{}_{a ahat} = 0: mixed eigenspace trace of the Riemann tensor.

    Contracted with indices down: P+ eta^-1 and P- eta^-1 are the two raised projectors.
    """
    p_plus, p_minus = projectors(g)
    val = np.einsum("mngd,gm,dn->", grm, p_plus @ a.eta_inv, p_minus @ a.eta_inv)
    return float(abs(val)) / (1.0 + float(np.max(np.abs(grm))))


def curvature_report(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None) -> CurvatureReport:
    grm = riemann(a, levi_civita(a, g, d))
    fgrc = _contract_riemann(a, grm.data)
    grc = _ricci_from_full(g, fgrc)
    gr = float(np.trace(g @ fgrc))
    return CurvatureReport(
        riemann=grm,
        full_ricci=fgrc,
        ricci=grc,
        scalar=gr,
        norm_ricci_sq=mixed_norm_sq(a, a.eta @ grc),
        symmetry_residual=riemann_symmetry_residual(a, grm.data),
        mixed_trace_residual=mixed_trace_residual(a, g, grm.data),
        route_residual_ricci=_route_gap(grc, ricci_bracket_route(a, g, d)),
        route_residual_scalar=_route_gap(gr, scalar_closed_form(a, g, d)),
    )
