"""Courant algebroid connections over a point.

A connection is its Christoffel array ``gamma[a, b, g] = <e_b, D_{e_a} e_g>``
(n x n x n, all indices down), so pairing compatibility is antisymmetry in the
last two slots; a divergence is a ``Divergence`` or None, the zero one.  Over a
point all sections are constant, so covariant derivatives act purely through
the Christoffel array; second derivatives carry the usual
``D_a D_b t = D_{e_a} D_{e_b} t - D_{D_{e_a} e_b} t`` correction, which is what
the generic ``cov_d`` composition produces.

The torsion and divergence repair maps tau'/kappa' are implemented invariantly
through the eigenprojectors of G, avoiding frame changes in hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadraticLieAlgebra
from .errors import ForbiddenRank
from .metric import eigen_ranks, projectors


@dataclass(frozen=True)
class Divergence:
    """Linear divergence div(u) = <d, u>; over a point every divergence is linear."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))


def divergence_vector(d: Divergence | None, n: int) -> np.ndarray:
    """The covector ``d.d``; None is the zero divergence."""
    return np.zeros(n) if d is None else d.d


def mixed_christoffel(a: QuadraticLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Mixed Christoffels M[a]^b_g = eta^{bd} gamma[a,d,g]."""
    return np.einsum("bd,adg->abg", a.eta_inv, gamma)


# -- covariant calculus -------------------------------------------------------


def cov_d(M: np.ndarray, t: np.ndarray, variance: tuple[str, ...]) -> np.ndarray:
    """Covariant derivative, adding one leading down slot.

    ``M[a]^b_g`` are mixed Christoffels; ``variance`` records 'u'/'d' per slot
    of ``t``.  Constant sections over a point: no partial-derivative term.
    """
    n = M.shape[0]
    out = np.zeros((n,) + t.shape)
    letters = "bcdefghijk"
    idx = letters[: t.ndim]
    for slot, var in enumerate(variance):
        rest = idx[:slot] + "z" + idx[slot + 1 :]
        if var == "u":
            out += np.einsum(f"a{idx[slot]}z,{rest}->a{idx}", M, t)
        else:
            out -= np.einsum(f"az{idx[slot]},{rest}->a{idx}", M, t)
    return out


def second_cov_d(M: np.ndarray, t: np.ndarray, variance: tuple[str, ...]) -> np.ndarray:
    """D_a D_b t with the connection correction on the first derivative slot."""
    first = cov_d(M, t, variance)
    return cov_d(M, first, ("d",) + tuple(variance))


def commutator_dd(M: np.ndarray, t: np.ndarray, variance: tuple[str, ...]) -> np.ndarray:
    """[D_a, D_b] t as a tensor with two leading down slots."""
    dd = second_cov_d(M, t, variance)
    return dd - dd.swapaxes(0, 1)


# -- torsion and repair maps ---------------------------------------------------


def torsion(a: QuadraticLieAlgebra, gamma: np.ndarray) -> np.ndarray:
    """Totally antisymmetric torsion, all indices down.

    T_{abg} = gamma[a,g,b] - gamma[b,g,a] - c_{abg} + gamma[g,b,a].
    """
    return gamma.transpose(0, 2, 1) - gamma.transpose(2, 0, 1) - a.c + gamma.transpose(2, 1, 0)


def antisymmetrize3(t: np.ndarray) -> np.ndarray:
    """Full alternation over the three slots."""
    return (
        t - t.transpose(1, 0, 2) + t.transpose(1, 2, 0)
        - t.transpose(2, 1, 0) + t.transpose(2, 0, 1) - t.transpose(0, 2, 1)
    ) / 6.0


def tau_map(A: np.ndarray) -> np.ndarray:
    """Torsion map on connection differences: tau(A) = T_{D+A} - T_D.

    Equals -3 times the antisymmetrization for A antisymmetric in the last
    two slots; this direct form is valid for any A.
    """
    return A.transpose(0, 2, 1) + A.transpose(1, 0, 2) + A.transpose(2, 1, 0)


def kappa_map(a: QuadraticLieAlgebra, A: np.ndarray) -> np.ndarray:
    """Divergence map kappa(A)_g = A^b{}_{bg} (covector, index down)."""
    return np.einsum("bd,dbg->g", a.eta_inv, A)


def tau_prime(a: QuadraticLieAlgebra, g: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Right inverse of tau landing in E (x) (Lam^2 V+ + Lam^2 V-), all indices down.

    (tau' t)_abc = -1/3 (t_abc + 1/2 (x_abc - x_acb) + G^d_b G^e_c t_ade) with
    x_abc = G^d_a t_deb G^e_c; since eta G = G^T eta, G moves each index
    without raising it.  Blockwise the coefficients are -1/3 on the pure
    blocks and -1 on the mixed-first-slot blocks.  ``a`` is not read.
    """
    x = np.einsum("da,deb->abe", g, t) @ g
    return -(t + 0.5 * (x - x.transpose(0, 2, 1)) + g.T @ t @ g) / 3.0


def kappa_prime(a: QuadraticLieAlgebra, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Right inverse of kappa: blockwise (kappa' u)_{abc} = 2/(n+-1) eta_{a[b} u_{c]}.

    ``u`` is a vector (index up).  Requires both eigenbundle ranks != 1.
    """
    n_plus, n_minus = eigen_ranks(g)
    if n_plus == 1 or n_minus == 1:
        raise ForbiddenRank(f"no kappa' and no LC connection with prescribed divergence at ranks ({n_plus},{n_minus})")
    u = np.asarray(u, dtype=float)
    out = np.zeros((a.n, a.n, a.n))
    for p, k in zip(projectors(g), (n_plus, n_minus)):
        if k == 0:
            continue
        eta_p = a.eta @ p  # symmetric since p is eta-symmetric
        u_p = eta_p @ u
        out += (np.einsum("ab,g->abg", eta_p, u_p) - np.einsum("ag,b->abg", eta_p, u_p)) / (k - 1)
    return out


def divergence_of(a: QuadraticLieAlgebra, gamma: np.ndarray) -> Divergence:
    """div_D(u) = D_a u^a, i.e. d_g = eta^{ab} gamma[a,b,g]."""
    return Divergence(np.einsum("ab,abg->g", a.eta_inv, gamma))


def levi_civita(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None = None) -> np.ndarray:
    """Christoffel array gamma of a Levi-Civita connection with prescribed divergence.

    Repair construction from gamma = 0 (compatible over a point): subtract
    tau'(torsion), then add kappa'(d - current divergence); the result is a
    fixed point of the repair; ``kappa_prime`` raises ForbiddenRank at an eigenbundle rank 1.
    """
    return lc_repair(a, g, d, np.zeros((a.n,) * 3))


def lc_repair(a: QuadraticLieAlgebra, g: np.ndarray, d: Divergence | None, gamma: np.ndarray) -> np.ndarray:
    """Re-run the torsion/divergence repair on an existing connection."""
    gamma = gamma - tau_prime(a, g, torsion(a, gamma))
    missing = divergence_vector(d, a.n) - divergence_of(a, gamma).d
    return gamma + kappa_prime(a, g, a.eta_inv @ missing)


def block_project(a: QuadraticLieAlgebra, g: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Project the last two (down) slots onto V+xV+ + V-xV-."""
    p_plus, p_minus = projectors(g)
    out = np.zeros_like(A)
    for p in (p_plus, p_minus):
        out += np.einsum("ade,db,eg->abg", A, p, p)
    return out


def kernel_project(a: QuadraticLieAlgebra, g: np.ndarray, A: np.ndarray) -> np.ndarray:
    """(1 - tau' tau - kappa' kappa) A: the part of A that changes neither torsion nor divergence."""
    return A - tau_prime(a, g, tau_map(A)) - kappa_prime(a, g, a.eta_inv @ kappa_map(a, A))


def lc_kernel_shift(a: QuadraticLieAlgebra, g: np.ndarray, seed: int) -> np.ndarray:
    """Random element of ker tau  ^  ker kappa  ^  E (x) (Lam^2 V+ + Lam^2 V-).

    These are exactly the differences between Levi-Civita connections with
    the same divergence.  Returns zeros when the kernel is trivial, recognized by a
    projected shift at round-off relative to the start ``a0``.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((a.n, a.n, a.n))
    a0 = block_project(a, g, 0.5 * (raw - raw.transpose(0, 2, 1)))
    shift = kernel_project(a, g, a0)
    peak = float(np.max(np.abs(shift)))
    if peak <= 1e-10 * float(np.max(np.abs(a0))):
        return np.zeros_like(shift)
    return shift / peak
