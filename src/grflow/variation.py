"""Variation formulas for connections, Ricci, and scalar curvature.

Metric paths for all finite-difference checks are eta-orthogonal
conjugations G_s = exp(sK) G exp(-sK) with eta K antisymmetric, which keep
the involution constraint exact, so central differences measure the formula
error and nothing else.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .algebra import QuadraticLieAlgebra
from .connection import (
    Connection,
    commutator_dd,
    cov_d,
    kappa_map,
    kappa_prime,
    levi_civita,
    mixed_christoffel,
    second_cov_d,
    tau_map,
    tau_prime,
)
from .curvature import full_ricci, ricci, scalar
from .errors import NonPositiveHalfDensity
from .metric import _as_matrix, lie_derivative_metric

FD_STEPS = (1e-2, 1e-3, 1e-4)


def connection_variation(a: QuadraticLieAlgebra, G, D: Connection, chi, eps=None) -> np.ndarray:
    """Connection ODE right side keeping D_s in LC(G_s, div_s).

    A = 1/4 (1 - tau' tau - kappa' kappa)(D[G, chi]) + kappa'(eps-vector);
    satisfies D_u chi + [A_u, G] = 0, tau(A) = 0, kappa(A) = eps.
    """
    g = _as_matrix(G)
    chi = np.asarray(chi, dtype=float)
    eps = np.zeros(a.n) if eps is None else np.asarray(eps, dtype=float)
    m = mixed_christoffel(a, D)
    dchi = cov_d(m, chi, ("u", "d"))  # (alpha, delta up, gamma down)
    x = 2.0 * np.einsum("bd,adg->abg", a.eta @ g, dchi)  # (D[G,chi])_{abg}
    core = x - tau_prime(a, g, tau_map(x)) - kappa_prime(a, g, a.eta_inv @ kappa_map(a, x))
    return 0.25 * core + kappa_prime(a, g, a.eta_inv @ eps)


def connection_variation_blockwise(a: QuadraticLieAlgebra, G, D: Connection, chi, eps=None) -> np.ndarray:
    """Blockwise component formulas for the connection variation.

    Works in an adapted frame: (n+-1) A_{abc} = eta_{a[b} D^{ahat} chi_{c]ahat}
    + 2 eta_{a[b} eps_{c]} and its V- mirror fill the pure blocks, the mixed
    blocks are +-1/2 D chi, the cross blocks antisymmetrized first
    derivatives.  Independent cross-check of the projection route.
    """
    from .algebra import change_basis
    from .metric import adapted_frame

    g = _as_matrix(G)
    chi = np.asarray(chi, dtype=float)
    eps_v = np.zeros(a.n) if eps is None else np.asarray(eps, dtype=float)
    fr = adapted_frame(a, g)
    q, qi = fr.Q, fr.Q_inv
    a2 = change_basis(a, q)
    gamma2 = np.einsum("da,eb,zg,dez->abg", q, q, q, D.gamma)
    m2 = np.einsum("bd,adg->abg", a2.eta_inv, gamma2)
    chi_dd = q.T @ (a.eta @ chi) @ q
    eps2 = q.T @ eps_v
    s = np.diag(a2.eta).copy()
    n_plus, n_minus = fr.n_plus, fr.n_minus
    P, M = slice(0, n_plus), slice(n_plus, a.n)
    dchi = cov_d(m2, chi_dd, ("d", "d"))  # slots (deriv, b, c), all down
    eta2 = a2.eta

    A = np.zeros((a.n, a.n, a.n))
    if n_plus > 1:
        w = np.einsum("h,hch->c", s[M], dchi[M, P, M])  # w_c = D^ahat chi_{c ahat}
        v = 0.5 * w + eps2[P]
        A[P, P, P] = (np.einsum("ab,c->abc", eta2[P, P], v) - np.einsum("ac,b->abc", eta2[P, P], v)) / (n_plus - 1)
    if n_minus > 1:
        w = np.einsum("h,hch->c", s[P], dchi[P, M, P])  # D^a chi_{chat a}
        v = -0.5 * w + eps2[M]
        A[M, M, M] = (np.einsum("ab,c->abc", eta2[M, M], v) - np.einsum("ac,b->abc", eta2[M, M], v)) / (n_minus - 1)
    A[P, P, M] = 0.5 * dchi[P, P, M]
    A[M, M, P] = -0.5 * dchi[M, M, P]
    A[M, P, M] = 0.5 * dchi[M, P, M]
    A[P, M, P] = -0.5 * dchi[P, M, P]
    t = dchi[P, P, M]  # slots (b, c, ahat)
    A[M, P, P] = -0.5 * (t - t.transpose(1, 0, 2)).transpose(2, 0, 1)
    u = dchi[M, M, P]  # slots (bhat, chat, a)
    A[P, M, M] = 0.5 * (u - u.transpose(1, 0, 2)).transpose(2, 0, 1)
    return np.einsum("abc,aA,bB,cC->ABC", A, qi, qi, qi)


def ricci_variation(a: QuadraticLieAlgebra, G, d, chi, eps=None) -> np.ndarray:
    """First variation of the Ricci endomorphism at (G, div) along (chi, eps).

    delta GRc = -1/2 Lap chi - 1/2 L_{Tr D chi + G eps} G + A(chi)
    + chi G GRc + G [chi, fGRc], all derivatives through D in LC(G, div).
    """
    g = _as_matrix(G)
    chi = np.asarray(chi, dtype=float)
    eps = np.zeros(a.n) if eps is None else np.asarray(eps, dtype=float)
    D = levi_civita(a, g, d)
    m = mixed_christoffel(a, D)
    fgrc = full_ricci(a, D)
    grc = fgrc - g @ fgrc @ g

    guu = g @ a.eta_inv  # G^{ab}
    chi_dd = a.eta @ chi
    lap = np.einsum("ab,abgd->gd", guu, second_cov_d(m, chi_dd, ("d", "d")))
    term1 = -0.5 * (a.eta_inv @ lap)

    chi_uu = chi @ a.eta_inv  # chi^{ab}
    trd = np.einsum("aab->b", cov_d(m, chi_uu, ("u", "u")))
    w = trd + g @ (a.eta_inv @ eps)
    term2 = -0.5 * lie_derivative_metric(a, g, w).chi

    chi_du = a.eta @ chi @ a.eta_inv  # chi_a{}^d
    comm = commutator_dd(m, chi_du, ("d", "u"))  # slots (d1, d2, a-down, d-up)
    t1 = np.einsum("gb,dgad->ab", g, comm)
    t2 = np.einsum("gb,dagd->ab", g, comm)
    acal = 0.5 * (t1 - t2)
    term3 = a.eta_inv @ (acal + acal.T)

    term4 = chi @ g @ grc
    term5 = g @ (chi @ fgrc - fgrc @ chi)
    return term1 + term2 + term3 + term4 + term5


def scalar_variation(a: QuadraticLieAlgebra, G, d, chi, eps=None) -> float:
    """delta GR = G^a_g G^b_d D_a D_b chi^{gd} - 2 G^{ab} D_a eps_b
    + 1/2 chi^{ab} GRc_{ab}."""
    g = _as_matrix(G)
    chi = np.asarray(chi, dtype=float)
    eps = np.zeros(a.n) if eps is None else np.asarray(eps, dtype=float)
    D = levi_civita(a, g, d)
    m = mixed_christoffel(a, D)
    chi_uu = chi @ a.eta_inv  # chi^{gd}
    dd = second_cov_d(m, chi_uu, ("u", "u"))
    val = float(np.einsum("ag,bd,abgd->", g, g, dd))
    deps = cov_d(m, eps, ("d",))
    val -= 2.0 * float(np.einsum("ab,ab->", g @ a.eta_inv, deps))
    grc = ricci(a, g, d, D=D)
    # chi^{ab} GRc_{ab} is the plain trace of the product of endomorphisms.
    val += 0.5 * float(np.trace(chi @ grc))
    return val


def eh_functional(a: QuadraticLieAlgebra, G, sigma: float) -> float:
    """Einstein-Hilbert functional over a point: S(G, sigma) = GR(G, 0) sigma^2."""
    if sigma <= 0:
        raise NonPositiveHalfDensity(f"sigma must be positive, got {sigma}")
    return scalar(a, _as_matrix(G), None) * sigma * sigma


def metric_path(G: np.ndarray, K: np.ndarray, s: float) -> np.ndarray:
    """Involution-preserving path exp(sK) G exp(-sK)."""
    e = expm(s * K)
    return e @ G @ np.linalg.inv(e)


def path_tangent(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """d/ds at 0 of the conjugation path: chi = [K, G]."""
    return K @ G - G @ K


def eh_gradient_check(a: QuadraticLieAlgebra, G, sigma: float, seed: int) -> float:
    """Finite-difference check of the Euler-Lagrange variation of S.

    Compares the centered derivative of S along (G_s, sigma + s nu) at
    s = 1e-4 with 1/2 <chi, GRc> sigma^2 + 2 GR sigma nu, i.e.
    -4(chi, GRc) - (nu, GR sigma) in the mixed-signature pairing.
    """
    if sigma <= 0:
        raise NonPositiveHalfDensity(f"sigma must be positive, got {sigma}")
    g = _as_matrix(G)
    rng = np.random.default_rng(seed)
    from .metric import random_eta_antisymmetric

    K = random_eta_antisymmetric(a, int(rng.integers(2**31)))
    K /= np.linalg.norm(K, 2)  # unit probe direction keeps the cubic remainder small
    nu = float(rng.standard_normal())
    chi = path_tangent(g, K)
    grc = ricci(a, g, None)
    gr = scalar(a, g, None)
    pred = 0.5 * float(np.trace(chi @ grc)) * sigma**2 + 2.0 * gr * sigma * nu
    s = 1e-4
    fd = (
        eh_functional(a, metric_path(g, K, s), sigma + s * nu)
        - eh_functional(a, metric_path(g, K, -s), sigma - s * nu)
    ) / (2 * s)
    return abs(fd - pred) / (1.0 + abs(pred))


def fd_error_ladder(exact, values_at, steps=FD_STEPS) -> list[float]:
    """Errors of centered differences against an exact derivative.

    ``values_at(s)`` evaluates the curve; ``exact`` is the claimed derivative
    at 0 (array or scalar).  Returns one error per step in ``steps``.
    """
    errors = []
    for s in steps:
        fd = (np.asarray(values_at(s)) - np.asarray(values_at(-s))) / (2 * s)
        err = np.max(np.abs(fd - np.asarray(exact)))
        errors.append(float(err))
    return errors
