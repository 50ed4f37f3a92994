"""Generalized pseudometrics: eigensplittings, adapted frames, tangents.

A generalized pseudometric is an endomorphism G with ``eta G`` symmetric and
``G^2 = Id``; it splits the space into eigenbundles V+ and V-.  Eigenspaces of
rank one are rejected (no Levi-Civita connection with prescribed divergence
exists there).  ``G`` is never used to raise or lower indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import QuadraticLieAlgebra
from .errors import DegenerateSubspace, ForbiddenRank

METRIC_TOL = 1e-10


def eigen_ranks(g: np.ndarray) -> tuple[int, int]:
    """(n+, n-) from the trace of the involution; robust to round-off."""
    n = g.shape[0]
    tr = float(np.trace(g))
    n_plus = int(round((n + tr) / 2))
    return n_plus, n - n_plus


def projectors(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(g.shape[0])
    return (eye + g) / 2, (eye - g) / 2


def involution_residual(g: np.ndarray) -> float:
    """max |G^2 - Id|, with Id taken off the diagonal of G^2 in place; inf or NaN where G^2 has them."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.matmul(g, g, dtype=float)
        r.ravel()[:: r.shape[0] + 1] -= 1.0
        return float(np.abs(r, out=r).max())


def eta_symmetry_residual(a: QuadraticLieAlgebra, g: np.ndarray) -> float:
    m = a.eta @ g
    return float(np.max(np.abs(m - m.T)))


@dataclass(frozen=True)
class GeneralizedPseudometric:
    """Validated involution G with its eigenbundle ranks cached."""

    G: np.ndarray
    n_plus: int
    n_minus: int
    strictly_positive: bool

    @classmethod
    def from_matrix(cls, a: QuadraticLieAlgebra, G: np.ndarray) -> "GeneralizedPseudometric":
        g = np.asarray(G, dtype=float)
        rep = validate_metric(a, g)
        if not rep.pseudometric:
            raise DegenerateSubspace(
                f"not a generalized pseudometric on n = {a.n}: shape {g.shape}, "
                f"involution residual {rep.involution_residual:.2e}, "
                f"eta-symmetry residual {rep.eta_symmetry_residual:.2e}"
            )
        if rep.n_plus == 1 or rep.n_minus == 1:
            raise ForbiddenRank(f"eigenbundle ranks ({rep.n_plus},{rep.n_minus}) include 1")
        return cls(g, rep.n_plus, rep.n_minus, rep.strictly_positive)


@dataclass
class MetricValidation:
    pseudometric: bool
    strictly_positive: bool
    n_plus: int
    n_minus: int
    involution_residual: float
    eta_symmetry_residual: float


def validate_metric(a: QuadraticLieAlgebra, g: np.ndarray) -> MetricValidation:
    """Report-style check of the pseudometric axioms; never raises.

    A G that is not n x n fails with both residuals reported as inf.
    """
    if g.shape != (a.n, a.n):
        return MetricValidation(False, False, 0, 0, float("inf"), float("inf"))
    inv_res = involution_residual(g)
    sym_res = eta_symmetry_residual(a, g)
    scale = max(1.0, float(np.max(np.abs(g))))
    ok = inv_res <= METRIC_TOL * scale and sym_res <= METRIC_TOL * scale
    n_plus, n_minus = eigen_ranks(g) if ok else (0, 0)
    return MetricValidation(ok, ok and is_strictly_positive(a, g), n_plus, n_minus, inv_res, sym_res)


def is_strictly_positive(a: QuadraticLieAlgebra, g: np.ndarray) -> bool:
    """Whether <G ., .> is positive definite: the least eigenvalue of the symmetric part of eta G is > 0."""
    pairing = a.eta @ g
    return bool(np.min(np.linalg.eigvalsh((pairing + pairing.T) / 2)) > 0)


def metric_from_subspace(a: QuadraticLieAlgebra, v_plus: np.ndarray) -> GeneralizedPseudometric:
    """G = P+ - P- with P+ the eta-orthogonal projection onto span(v_plus).

    ``v_plus`` holds basis vectors as columns (or a list of vectors).
    """
    v = np.asarray(v_plus, dtype=float)
    if not (1 <= v.ndim <= 2 and np.all(np.isfinite(v))):
        raise DegenerateSubspace(f"basis of V+ must be finite vectors, got an array of shape {v.shape}")
    if v.ndim == 1:
        v = v[:, None]
    if v.shape[0] != a.n:  # accept a list of row vectors too
        if v.shape[1] == a.n:
            v = v.T
        else:
            raise DegenerateSubspace(f"basis shape {v.shape} incompatible with n={a.n}")
    k = v.shape[1]
    if k == 1 or a.n - k == 1:
        raise ForbiddenRank(f"eigenbundle ranks ({k},{a.n - k}) include 1")
    gram = v.T @ a.eta @ v
    if k > 0:
        w = np.linalg.eigvalsh((gram + gram.T) / 2)
        scale = max(float(np.max(np.abs(w))), np.finfo(float).tiny)
        if np.min(np.abs(w)) <= 1e-12 * scale:
            raise DegenerateSubspace("eta restricted to span(v_plus) is degenerate")
        p_plus = v @ np.linalg.solve(gram, v.T @ a.eta)
    else:
        p_plus = np.zeros((a.n, a.n))
    G = 2 * p_plus - np.eye(a.n)
    return GeneralizedPseudometric.from_matrix(a, G)


def metric_from_graph(a: QuadraticLieAlgebra, g: np.ndarray, b: np.ndarray | None = None) -> GeneralizedPseudometric:
    """Graph metric on a double: V+ spanned by x_i + (g+B)(x_i, .).

    Assumes the first half of the basis spans the isotropic subalgebra h and
    the second half its dual, as produced by the double presets.  Only g + B
    enters, so g must be symmetric and B antisymmetric, or one would pass for
    a part of the other.
    """
    g = np.asarray(g, dtype=float)
    b = np.zeros_like(g) if b is None else np.asarray(b, dtype=float)
    m = a.n // 2
    if a.n != 2 * m or g.shape != (m, m) or b.shape != (m, m):
        raise DegenerateSubspace(f"graph construction needs g and B of shape ({m}, {m}) and n = 2*{m}, "
                                 f"got {g.shape}, {b.shape} and n = {a.n}")
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite g or B fails metric_from_subspace's check
        sym_res, antisym_res = np.max(np.abs(g - g.T)), np.max(np.abs(b + b.T))
    if max(sym_res, antisym_res) > METRIC_TOL * max(1.0, np.max(np.abs(g))):
        raise DegenerateSubspace(f"graph construction needs g symmetric and B antisymmetric, got "
                                 f"max|g - g^T| = {sym_res:.3g} and max|B + B^T| = {antisym_res:.3g}")
    v = np.vstack([np.eye(m), (g + b).T])
    return metric_from_subspace(a, v)


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame with eta = diag(+-1), V+ spanned by the first ``n_plus`` columns.

    For strictly positive metrics the signs are (+1 on V+, -1 on V-), i.e.
    eta = diag(I, -I) and G = diag(I, -I).  For general pseudometrics the
    signs within each block follow the signature of eta restricted to it,
    ordered +1 first.
    """

    Q: np.ndarray
    Q_inv: np.ndarray
    signs: np.ndarray
    n_plus: int
    n_minus: int


def adapted_frame(a: QuadraticLieAlgebra, g: np.ndarray) -> AdaptedFrame:
    """Build a frame in which eta is diag(+-1) and G = diag(I_{n+}, -I_{n-}).

    Per eigenspace of rank k: U = the first k left singular vectors of the
    projector (an orthonormal basis of its range; the projector is not
    symmetric, so not ``eigh``), then U^T eta U = W diag(w) W^T and the
    columns are U W |w|^(-1/2) with signs sign(w).  Raises
    DegenerateSubspace when eta is (numerically) degenerate on an eigenspace.
    """
    n_plus, n_minus = eigen_ranks(g)
    frames, signs = [], []
    for p, k in zip(projectors(g), (n_plus, n_minus)):
        if k == 0:
            continue
        u = np.linalg.svd(p)[0][:, :k]
        w, v = np.linalg.eigh(u.T @ a.eta @ u)
        if np.min(np.abs(w)) <= 1e-12 * np.max(np.abs(w)):
            raise DegenerateSubspace("eta degenerate on an eigenspace of G")
        order = np.argsort(-np.sign(w), kind="stable")  # +1 columns first
        frames.append((u @ v / np.sqrt(np.abs(w)))[:, order])
        signs.append(np.sign(w)[order])
    q = np.concatenate(frames, axis=1)
    return AdaptedFrame(q, np.linalg.inv(q), np.concatenate(signs), n_plus, n_minus)


def lie_derivative_metric(a: QuadraticLieAlgebra, g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Generalized Lie derivative L_u G = [ad_u, G], an eta-symmetric chi anticommuting with G.

    Blockwise this is (L_u G) a+ = 2 [u, a+]_- and (L_u G) a- = -2 [u, a-]_+,
    assembled in the ambient frame.
    """
    ad = a.ad(np.asarray(u, dtype=float))
    return ad @ g - g @ ad


def random_tangent(a: QuadraticLieAlgebra, g: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic random tangent chi: a V+ x V- block plus its eta-adjoint eta^-1 block^T eta."""
    rng = np.random.default_rng(seed)
    p_plus, p_minus = projectors(g)
    x = rng.standard_normal((a.n, a.n))
    block = p_plus @ x @ p_minus
    return block + a.eta_inv @ block.T @ a.eta


def random_eta_antisymmetric(a: QuadraticLieAlgebra, seed: int) -> np.ndarray:
    """Random generator K with eta K antisymmetric (exp(sK) is eta-orthogonal)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((a.n, a.n))
    return a.eta_inv @ (w - w.T)


def random_strictly_positive_metric(a: QuadraticLieAlgebra, seed: int) -> GeneralizedPseudometric:
    """Random strictly positive G, deterministic in the seed.

    Works in an eta-orthonormal frame: V+ is the graph of a contraction K
    from the positive block to the negative block (operator norm < 1), which
    characterizes strict positivity.
    """
    rng = np.random.default_rng(seed)
    w, u = np.linalg.eigh(a.eta)
    order = np.argsort(-w)  # positive eigenvalues first
    w, u = w[order], u[:, order]
    frame = u / np.sqrt(np.abs(w))
    p = int(np.sum(w > 0))
    q = a.n - p
    if q == 0:
        return GeneralizedPseudometric.from_matrix(a, np.eye(a.n))
    k = rng.standard_normal((q, p))
    sv = np.linalg.svd(k, compute_uv=False)
    if sv.size and sv[0] > 0:  # p = 0 leaves k empty: V+ = 0 and G = -Id
        k *= 0.8 * rng.uniform(0.3, 1.0) / sv[0]
    v_plus = frame[:, :p] + frame[:, p:] @ k
    return metric_from_subspace(a, v_plus)


def mixed_norm_sq(a: QuadraticLieAlgebra, m_down: np.ndarray) -> float:
    """|m|^2_G := -m^{ab} m_{ab} for eta-symmetric m anticommuting with G.

    Defined as minus the full eta-contraction; nonnegative for strictly
    positive G, where it equals 2 sum of the squared mixed components in an
    adapted frame.
    """
    m_up = a.eta_inv @ m_down @ a.eta_inv
    return float(-np.einsum("ab,ab->", m_up, m_down))
