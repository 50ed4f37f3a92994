"""Courant algebroid connections over a point.

Storage convention: ``gamma[a, b, g] = <e_b, D_{e_a} e_g>`` with all indices
down, so pairing compatibility is antisymmetry in the last two slots.  Over a
point all sections are constant, so covariant derivatives act purely through
the Christoffel array; second derivatives carry the usual
``D_a D_b t = D_{e_a} D_{e_b} t - D_{D_{e_a} e_b} t`` correction, which is what
the generic ``cov_d`` composition produces.

The torsion and divergence repair maps tau'/kappa' are implemented invariantly
through the eigenprojectors of G, avoiding frame changes in hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import QuadraticLieAlgebra
from .errors import ForbiddenRank
from .metric import _as_matrix, eigen_ranks, projectors

PAIRING_TOL = 1e-12


@dataclass(frozen=True)
class Connection:
    """Christoffel array of a pairing-compatible connection."""

    gamma: np.ndarray
    mixed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=float))

    def bind(self, a: QuadraticLieAlgebra) -> "Connection":
        """Cache the mixed Christoffels M[a]^b_g = eta^{bd} gamma[a,d,g]."""
        object.__setattr__(self, "mixed", np.einsum("bd,adg->abg", a.eta_inv, self.gamma))
        return self

    def pairing_residual(self) -> float:
        return float(np.max(np.abs(self.gamma + self.gamma.transpose(0, 2, 1))))


@dataclass(frozen=True)
class Divergence:
    """Linear divergence div(u) = <d, u>; over a point every divergence is linear."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))

    @classmethod
    def zero(cls, n: int) -> "Divergence":
        return cls(np.zeros(n))


def as_divergence(d, n: int) -> Divergence:
    if d is None:
        return Divergence.zero(n)
    if isinstance(d, Divergence):
        return d
    return Divergence(np.asarray(d, dtype=float))


def mixed_christoffel(a: QuadraticLieAlgebra, D: Connection) -> np.ndarray:
    m = getattr(D, "mixed", None)
    if m is None:
        D.bind(a)
        m = D.mixed
    return m


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


def torsion(a: QuadraticLieAlgebra, D: Connection) -> np.ndarray:
    """Totally antisymmetric torsion, all indices down.

    T_{abg} = gamma[a,g,b] - gamma[b,g,a] - c_{abg} + gamma[g,b,a].
    """
    g = D.gamma
    return g.transpose(0, 2, 1) - g.transpose(2, 0, 1) - a.c + g.transpose(2, 1, 0)


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


def tau_prime(a: QuadraticLieAlgebra, G, t: np.ndarray) -> np.ndarray:
    """Right inverse of tau landing in E (x) (Lam^2 V+ + Lam^2 V-).

    Compact form: (tau' t)^{abc} = -1/3 (t^{abc} + G^a_d t^{de[b} G^{c]}_e
    + t^{ade} G^b_d G^c_e); blockwise the coefficients are -1/3 on the pure
    blocks and -1 on the mixed-first-slot blocks.
    """
    g = _as_matrix(G)
    t_up = np.einsum("ad,be,gz,dez->abg", a.eta_inv, a.eta_inv, a.eta_inv, t)
    x = np.einsum("ad,deb,ge->abg", g, t_up, g)
    term2 = 0.5 * (x - x.transpose(0, 2, 1))
    term3 = np.einsum("ade,bd,ge->abg", t_up, g, g)
    out_up = -(t_up + term2 + term3) / 3.0
    return np.einsum("ad,be,gz,dez->abg", a.eta, a.eta, a.eta, out_up)


def kappa_prime(a: QuadraticLieAlgebra, G, u: np.ndarray) -> np.ndarray:
    """Right inverse of kappa: blockwise (kappa' u)_{abc} = 2/(n+-1) eta_{a[b} u_{c]}.

    ``u`` is a vector (index up).  Requires both eigenbundle ranks != 1.
    """
    g = _as_matrix(G)
    n_plus, n_minus = eigen_ranks(g)
    if n_plus == 1 or n_minus == 1:
        raise ForbiddenRank(f"kappa' undefined for ranks ({n_plus},{n_minus})")
    u = np.asarray(u, dtype=float)
    out = np.zeros((a.n, a.n, a.n))
    for p, k in zip(projectors(g), (n_plus, n_minus)):
        if k == 0:
            continue
        eta_p = a.eta @ p  # symmetric since p is eta-symmetric
        u_p = eta_p @ u
        out += (np.einsum("ab,g->abg", eta_p, u_p) - np.einsum("ag,b->abg", eta_p, u_p)) / (k - 1)
    return out


def divergence_of(a: QuadraticLieAlgebra, D: Connection) -> Divergence:
    """div_D(u) = D_a u^a, i.e. d_g = eta^{ab} gamma[a,b,g]."""
    return Divergence(np.einsum("ab,abg->g", a.eta_inv, D.gamma))


def levi_civita(a: QuadraticLieAlgebra, G, d=None) -> Connection:
    """Levi-Civita connection with prescribed divergence.

    Repair construction from gamma = 0 (compatible over a point): subtract
    tau'(torsion), then add kappa'(d - current divergence); the result is a
    fixed point of the repair.
    """
    g = _as_matrix(G)
    n_plus, n_minus = eigen_ranks(g)
    if n_plus == 1 or n_minus == 1:
        raise ForbiddenRank(f"no LC connection with prescribed divergence at ranks ({n_plus},{n_minus})")
    return lc_repair(a, g, d, Connection(np.zeros((a.n,) * 3)))


def lc_repair(a: QuadraticLieAlgebra, G, d, D: Connection) -> Connection:
    """Re-run the torsion/divergence repair on an existing connection."""
    g = _as_matrix(G)
    div = as_divergence(d, a.n)
    gamma = D.gamma - tau_prime(a, g, torsion(a, D))
    missing = div.d - divergence_of(a, Connection(gamma)).d
    gamma = gamma + kappa_prime(a, g, a.eta_inv @ missing)
    return Connection(gamma).bind(a)


def block_project(a: QuadraticLieAlgebra, G, A: np.ndarray) -> np.ndarray:
    """Project the last two (down) slots onto V+xV+ + V-xV-."""
    g = _as_matrix(G)
    p_plus, p_minus = projectors(g)
    out = np.zeros_like(A)
    for p in (p_plus, p_minus):
        out += np.einsum("ade,db,eg->abg", A, p, p)
    return out


def lc_kernel_shift(a: QuadraticLieAlgebra, G, seed: int) -> np.ndarray:
    """Random element of ker tau  ^  ker kappa  ^  E (x) (Lam^2 V+ + Lam^2 V-).

    These are exactly the differences between Levi-Civita connections with
    the same divergence.  Returns zeros when the kernel is trivial, recognized by a
    projected shift at round-off relative to the start ``a0``.
    """
    g = _as_matrix(G)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((a.n, a.n, a.n))
    a0 = block_project(a, g, 0.5 * (raw - raw.transpose(0, 2, 1)))
    shift = a0 - tau_prime(a, g, tau_map(a0)) - kappa_prime(a, g, a.eta_inv @ kappa_map(a, a0))
    peak = float(np.max(np.abs(shift)))
    if peak <= 1e-10 * float(np.max(np.abs(a0))):
        return np.zeros_like(shift)
    return shift / peak
