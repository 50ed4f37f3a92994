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


def _as_matrix(G) -> np.ndarray:
    if isinstance(G, GeneralizedPseudometric):
        return G.G
    return np.asarray(G, dtype=float)


def eigen_ranks(G) -> tuple[int, int]:
    """(n+, n-) from the trace of the involution; robust to round-off."""
    g = _as_matrix(G)
    n = g.shape[0]
    tr = float(np.trace(g))
    n_plus = int(round((n + tr) / 2))
    return n_plus, n - n_plus


def projectors(G) -> tuple[np.ndarray, np.ndarray]:
    g = _as_matrix(G)
    eye = np.eye(g.shape[0])
    return (eye + g) / 2, (eye - g) / 2


def involution_residual(G) -> float:
    g = _as_matrix(G)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(g @ g - np.eye(g.shape[0]))))


def eta_symmetry_residual(a: QuadraticLieAlgebra, G) -> float:
    m = a.eta @ _as_matrix(G)
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

    @property
    def n(self) -> int:
        return self.G.shape[0]


@dataclass
class MetricValidation:
    pseudometric: bool
    strictly_positive: bool
    n_plus: int
    n_minus: int
    involution_residual: float
    eta_symmetry_residual: float

    def as_dict(self) -> dict:
        return {
            "pseudometric": self.pseudometric,
            "strictly_positive": self.strictly_positive,
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "involution_residual": self.involution_residual,
            "eta_symmetry_residual": self.eta_symmetry_residual,
        }


def validate_metric(a: QuadraticLieAlgebra, G) -> MetricValidation:
    """Report-style check of the pseudometric axioms; never raises.

    A G that is not n x n fails with both residuals reported as inf.
    """
    g = _as_matrix(G)
    if g.shape != (a.n, a.n):
        return MetricValidation(False, False, 0, 0, float("inf"), float("inf"))
    inv_res = involution_residual(g)
    sym_res = eta_symmetry_residual(a, g)
    scale = max(1.0, float(np.max(np.abs(g))))
    ok = inv_res <= METRIC_TOL * scale and sym_res <= METRIC_TOL * scale
    n_plus, n_minus = eigen_ranks(g) if ok else (0, 0)
    strictly_positive = False
    if ok:
        pairing = a.eta @ g
        strictly_positive = bool(np.min(np.linalg.eigvalsh((pairing + pairing.T) / 2)) > 0)
    return MetricValidation(ok, strictly_positive, n_plus, n_minus, inv_res, sym_res)


def metric_from_subspace(a: QuadraticLieAlgebra, v_plus: np.ndarray) -> GeneralizedPseudometric:
    """G = P+ - P- with P+ the eta-orthogonal projection onto span(v_plus).

    ``v_plus`` holds basis vectors as columns (or a list of vectors).
    """
    v = np.asarray(v_plus, dtype=float)
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
    the second half its dual, as produced by the double presets.
    """
    g = np.asarray(g, dtype=float)
    m = g.shape[0]
    if a.n != 2 * m:
        raise DegenerateSubspace(f"graph construction needs n = 2*{m}, algebra has n = {a.n}")
    if b is None:
        b = np.zeros((m, m))
    b = np.asarray(b, dtype=float)
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
    algebra: QuadraticLieAlgebra


def _pseudo_orthonormalize(a: QuadraticLieAlgebra, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt for an indefinite pairing with self-pairing pivoting.

    Falls back to hyperbolic combinations u+w when every remaining
    self-pairing is small against the cross pairings (nearly null basis).
    """
    cols = [basis[:, i].copy() for i in range(basis.shape[1])]
    out, signs = [], []
    scale = max(float(np.max(np.abs(basis))) ** 2, np.finfo(float).tiny)
    while cols:
        m = np.stack(cols, axis=1)
        gram = m.T @ a.eta @ m
        diag = np.abs(np.diag(gram))
        best = int(np.argmax(diag))
        off = np.abs(gram - np.diag(np.diag(gram)))
        max_off = float(np.max(off)) if off.size else 0.0
        if diag[best] < 0.5 * max_off:
            i, j = np.unravel_index(np.argmax(off), off.shape)
            v = cols[i] + np.sign(gram[i, j]) * cols[j]
            drop = max(i, j)
        else:
            v = cols[best]
            drop = best
        p = a.pair(v, v)
        if abs(p) <= 1e-12 * scale:
            raise DegenerateSubspace("eta degenerate on eigenspace (pivot self-pairing ~ 0)")
        s = 1.0 if p > 0 else -1.0
        v = v / np.sqrt(abs(p))
        del cols[drop]
        cols = [w - s * a.pair(w, v) * v for w in cols]
        out.append(v)
        signs.append(s)
    order = np.argsort([-s for s in signs], kind="stable")  # +1 columns first
    q = np.stack([out[i] for i in order], axis=1) if out else np.zeros((a.n, 0))
    return q, np.array([signs[i] for i in order])


def adapted_frame(a: QuadraticLieAlgebra, G) -> AdaptedFrame:
    """Build a frame in which eta is diag(+-1) and G = diag(I_{n+}, -I_{n-})."""
    g = _as_matrix(G)
    n_plus, n_minus = eigen_ranks(g)
    p_plus, p_minus = projectors(g)
    frames, signs = [], []
    for p, k in ((p_plus, n_plus), (p_minus, n_minus)):
        if k == 0:
            continue
        # The k largest columns of the projector span the eigenspace.
        norms = np.linalg.norm(p, axis=0)
        idx = np.argsort(-norms, kind="stable")[:k]
        q, s = _pseudo_orthonormalize(a, p[:, np.sort(idx)])
        frames.append(q)
        signs.append(s)
    q = np.concatenate(frames, axis=1) if frames else np.zeros((a.n, 0))
    signs = np.concatenate(signs) if signs else np.zeros(0)
    return AdaptedFrame(q, np.linalg.inv(q), signs, n_plus, n_minus, a)


@dataclass(frozen=True)
class MetricTangent:
    """eta-symmetric endomorphism anticommuting with G."""

    chi: np.ndarray

    @classmethod
    def from_matrix(cls, a: QuadraticLieAlgebra, G, chi: np.ndarray, tol: float = METRIC_TOL) -> "MetricTangent":
        g = _as_matrix(G)
        chi = np.asarray(chi, dtype=float)
        scale = max(1.0, float(np.max(np.abs(chi))))
        sym = a.eta @ chi
        if np.max(np.abs(sym - sym.T)) > tol * scale:
            raise DegenerateSubspace("tangent not eta-symmetric")
        if np.max(np.abs(chi @ g + g @ chi)) > tol * scale:
            raise DegenerateSubspace("tangent does not anticommute with G")
        return cls(chi)


def eta_adjoint(a: QuadraticLieAlgebra, m: np.ndarray) -> np.ndarray:
    """Adjoint with respect to eta: eta^{-1} m^T eta."""
    return a.eta_inv @ m.T @ a.eta


def lie_derivative_metric(a: QuadraticLieAlgebra, G, u: np.ndarray) -> MetricTangent:
    """Generalized Lie derivative L_u G = [ad_u, G].

    Blockwise this is (L_u G) a+ = 2 [u, a+]_- and (L_u G) a- = -2 [u, a-]_+,
    assembled in the ambient frame.
    """
    g = _as_matrix(G)
    ad = a.ad(np.asarray(u, dtype=float))
    return MetricTangent(ad @ g - g @ ad)


def random_tangent(a: QuadraticLieAlgebra, G, seed: int) -> MetricTangent:
    """Deterministic random tangent: a V+ x V- block made eta-symmetric."""
    g = _as_matrix(G)
    rng = np.random.default_rng(seed)
    p_plus, p_minus = projectors(g)
    x = rng.standard_normal((a.n, a.n))
    block = p_plus @ x @ p_minus
    chi = block + eta_adjoint(a, block)
    return MetricTangent(chi)


def random_eta_antisymmetric(a: QuadraticLieAlgebra, seed: int) -> np.ndarray:
    """Random generator K with eta K antisymmetric (exp(sK) is eta-orthogonal)."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((a.n, a.n))
    return a.eta_inv @ (w - w.T)


def random_strictly_positive_metric(a: QuadraticLieAlgebra, seed: int, spread: float = 0.8) -> GeneralizedPseudometric:
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
    if sv[0] > 0:
        k *= spread * rng.uniform(0.3, 1.0) / sv[0]
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
