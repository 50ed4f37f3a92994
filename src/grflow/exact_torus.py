"""Generalized Ricci flow on flat tori: fields (g, b, phi), b = *B, with flux H = k eps + dB.

Explicit exact-case equations:

    dt g_ij  = -2 Rc_ij + 1/2 H_ikl H_j^kl - 4 grad_i grad_j phi
    dt B_ij  = div^k H_kij - 2 (grad^k phi) H_kij
    dt phi   = Lap_g phi - 2 |grad phi|^2 + 1/12 |H|^2

and the scalar-curvature field R - 1/12 |H|^2_g - 4 e^phi Lap_g e^-phi.

The flux is a closed 3-form, so on T^3 it is a top form H = h eps with one component, the density
h = H_012 = k + div(b), b_k = (*B)_k = 1/2 eps_kij B_ij; on T^2 it vanishes and dt b = 0. Every flux
term is then an algebraic identity of a top form in 3D (eps the coordinate symbol, v_l = Gamma^m_{lm}):

    H_ikl H_j^kl = (2 h^2 / det g) g_ij,    |H|^2 = 6 h^2 / det g,
    grad_l H_kij = (d_l h - h v_l) eps_kij, so dt B_ij = eps_kij X^k and dt b = X,
    X^k = g^{kl} (d_l h - h (v_l + 2 d_l phi)).

Discretization: 4th-order central differences on a uniform periodic grid.
``deriv`` is the only stencil: one wrapped copy of the field, two nodes longer
at each end, read through four slice views (no ``np.roll`` copies), and one
result array that the sum's five passes update in place, in difference form
(8 (f[j+1] - f[j-1]) - f[j+2]) + f[j-2], then / 12h, so it makes no other
array and is exactly 0 on a constant field of any magnitude. ``grad`` has each
``deriv`` write into its block of one array, with the derivative index as its
first axis, and ``div`` contracts the first axis again, adding each term in place.
The Laplace-Beltrami operator is kept in divergence form, which makes it
exactly self-adjoint for the discrete dV-weighted inner product (central
difference matrices are antisymmetric circulants): lambda_torus's eigenproblem
(W L) u = lambda W u is symmetric, and the Einstein-Hilbert quadrature exact.
LOBPCG solves its W-symmetric standard form in v = W^1/2 u, whose residual norm
is the bound's ||L u - lambda u||_W. The stencil's symbol vanishes at the
Nyquist frequency, so on a flat state L annihilates the 2^d sublattice modes,
and lambda's minimizer can become one of them along a long run.

The state holds (g pairs, b, phi): g_p = g_ij on the d(d+1)/2 pairs i <= j in ``np.triu_indices``
order and b = *B; the full g and B are derived, read-only. Every array this module computes keeps its
component axes first and its grid axes last: gs is (pairs,) + grid, b is (d(d-1)/2,) + grid, and
``grad`` puts the derivative index in front, so each component is one contiguous grid block. Only the
full g and B (and the full forms ``exterior_derivative`` reads) keep the grid first and the matrix on the
last two axes, as ``np.linalg`` and the field dump read them. ``sym_pairs``, ``sym_full`` and
``form_slots`` convert between the two layouts, and ``TorusFieldState.from_full`` builds a state from a
full g and B. Gamma^k_ij (symmetric in ij), Rc, the Hessian, dt g and the RK4 update stay on the pairs,
so each independent component is differentiated once. Geometry is built once per state: ``torus_fields``
computes each field of the read-only ``TorusFields`` record (g^-1, w = sqrt(det g), w g^-1, Gamma,
v_j = Gamma^k_kj, Rc, h, |H|^2, d phi, g^-1 d phi) and expands Gamma to (k, i, j) once, for v and Rc;
``christoffel`` writes Gamma into the buffer of the partials of g, which it no longer reads. The members
only records read (the trace row, the step size, GR and lambda) are formed on first read: the margin, the
measure dv = w h^d and the potential R - |H|^2/12, so an RK4 stage, which reads the record only through
``torus_rhs``, pays for none of them. One Laplacian, ``laplace_beltrami`` of the gradient its caller
holds, serves the phi-equation and lambda's operator L (``dirichlet_operator``; GR = e^phi L e^-phi), and
one measure, dv, serves lambda's weight W and the Einstein-Hilbert quadrature.

Contractions are plain einsums over the component axes, so numpy's inner loop runs along the whole
grid, and the gathers (``christoffel``'s table, Gamma's expansion, the pairs of a full tensor) copy
whole grid blocks. g^-1 and det g are closed-form cofactors of g / s, s a power of two near max|g|
(``scaled_cofactors``), so g^-1 is symmetric bitwise and, where no product over- or underflows,
bitwise the cofactor formula on g itself.

Positivity. Every state ``torus_fields`` builds, each RK4 stage included, is certified by
``positivity_check`` from the cofactors g^-1 needs anyway: tr g, m2 = c00 + c11 + c22 and
det g positive make g positive definite with lambda_min >= det / m2 (det / tr on T^2), and
where that bound, less a derived round-off allowance on g / s, clears SPD_FLOOR at every
node, no eigenvalue is computed. Elsewhere the exact margin decides, so a stage raises
exactly where the margin is below SPD_FLOOR. The margin (``TorusFieldState.spd_margin``,
through ``degenerate_nodes``, once per record) is the grid minimum of ``eigvalsh`` bit for
bit, but ``eigvalsh`` runs only on the few nodes that a closed-form lowest-eigenvalue screen
(``lowest_eig_estimate``) cannot rule out, and on one matrix when those candidates are all
bitwise equal, as every node of a spatially constant metric (each flat start) is.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, EigensolverStalled, ValidationError
from .runs import check_max_steps, check_positive_finite, integrate

SPD_FLOOR = 1e-8
KMAX = 2  # perturbed_state's default highest mode
# spd_margin's slack, relative to max|g|, above the least closed-form eigenvalue estimate: twice the
# estimate's worst error must fit inside it (2.5e-8 max|g| measured, at a double lowest eigenvalue)
SCREEN = 1e-6
# positivity_check's allowance on g / s (entries below 2 in magnitude, u = 2^-53): tr, m2 and det of g / s
# carry round-off below 12 u, 96 u and 240 u, all below 2^-44; the 16-fold rest covers the rounding of the
# comparison and eigvalsh's backward error, a small multiple of u |g| <= 6 u s
ALLOWANCE = 2.0**-40
# the slots (I[k], J[k]) of B that hold b_k: eps_kIJ = 1 on T^3, and B_01 on T^2
_FORM2 = {2: ([0], [1]), 3: ([1, 2, 0], [2, 0, 1])}


def _symmetric_pairs(d: int):
    """Index tables of the d(d+1)/2 upper-triangle pairs p = (i, j), i <= j, in ``np.triu_indices`` order.

    Returns (iu, ju, pair, first, second): pair[i, j] = pair[j, i] is the index of (i, j). With P pairs,
    the flattened (l, p) block of d_l g_p holds d_i g_jl at first[l, q] = i P + pair[j, l] and d_j g_il
    at second[l, q] = j P + pair[i, l], for the pair q = (i, j).
    """
    iu, ju = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    ls = np.arange(d)[:, None]
    return iu, ju, pair, iu * len(iu) + pair[ju, ls], ju * len(iu) + pair[iu, ls]


_SYM = {d: _symmetric_pairs(d) for d in (2, 3)}


def sym_pairs(m: np.ndarray) -> np.ndarray:
    """The pairs i <= j of symmetric matrices on the last two axes, read above the diagonal, as ``gs`` holds
    them: the pair axis first, then the leading axes of m."""
    iu, ju = _SYM[m.shape[-1]][:2]
    return np.moveaxis(m[..., iu, ju], -1, 0)


def sym_full(p: np.ndarray) -> np.ndarray:
    """The symmetric matrices, on the last two axes, whose ``sym_pairs`` are the first axis of p: its inverse.

    The gather copies whole blocks (one per matrix slot); the result is a view of that copy."""
    return np.moveaxis(p[_SYM[{3: 2, 6: 3}[p.shape[0]]][2]], (0, 1), (-2, -1))


def _symmetrized_pairs(x: np.ndarray) -> np.ndarray:
    """1/2 (x_ij + x_ji) at the pairs i <= j of a tensor with its two slots on the first axes: whole grid blocks."""
    iu, ju = _SYM[x.shape[0]][:2]
    sym = x[iu, ju]
    sym += x[ju, iu]
    sym *= 0.5
    return sym


def form_slots(B: np.ndarray) -> np.ndarray:
    """b = *B of 2-forms on the last two axes, as ``b`` holds it: the slots B_IJ of ``_FORM2``, component axis first."""
    return np.moveaxis(B[(..., *_FORM2[B.shape[-1]])], -1, 0)


@dataclass(frozen=True)
class TorusGeometry:
    d: int
    N: int
    L: float = 2.0 * np.pi

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValidationError(f"torus dimension must be 2 or 3, got {self.d}")
        if self.N < 8 or self.N % 2:
            raise ValidationError(f"grid size must be even and >= 8, got {self.N}")
        with np.errstate(over="ignore", under="ignore"):  # dv reads h^d; for d <= 3, h^2 is then a float too
            if not (self.L > 0 and 0 < np.float64(self.h) ** self.d < np.inf):
                raise ValidationError(f"period must be positive, (L / N)^{self.d} finite and nonzero, got {self.L!r}")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    def grids(self) -> list[np.ndarray]:
        """Node coordinates j*h along each axis, one array per axis over the whole grid."""
        return list(np.meshgrid(*([np.arange(self.N) * self.h] * self.d), indexing="ij"))


def deriv(geom: TorusGeometry, f: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """4th-order central first derivative along a grid axis (periodic), written to ``out`` if given.

    The sum in difference form, (8 (f[j+1] - f[j-1]) - f[j+2]) + f[j-2], then divided by 12 h: five
    passes over one result array, which each step updates in place, reading one wrapped copy of f (two
    nodes longer at each end) through four slice views. On a constant field every step is exact, so its
    derivative is exactly 0 at any magnitude.
    """
    n = f.shape[axis]
    ahead = (slice(None),) * (axis % f.ndim)
    wrapped = np.concatenate((f[ahead + (slice(n - 2, n),)], f, f[ahead + (slice(0, 2),)]), axis=axis)

    def at(s):  # f[j + s] for the nodes j = 0 .. n - 1; node j + 2 of the wrapped copy holds f[j mod n]
        return wrapped[ahead + (slice(2 + s, 2 + s + n),)]

    acc = np.subtract(at(1), at(-1), out=out)
    acc *= 8.0
    acc -= at(2)
    acc += at(-2)
    acc /= 12.0 * geom.h
    return acc


def grad(geom: TorusGeometry, f: np.ndarray) -> np.ndarray:
    """Partials of a scalar or stacked field, grid axes last: shape (d,) + f.shape, out[l] = d_l f.

    Each ``deriv`` writes its last step straight into its block of the result."""
    out = np.empty((geom.d,) + f.shape)
    for l in range(geom.d):
        deriv(geom, f, l - geom.d, out=out[l])
    return out


def div(geom: TorusGeometry, f: np.ndarray) -> np.ndarray:
    """Divergence over the first axis: sum_k d_k f[k], the contraction of ``grad``.

    The terms are added in place to the k = 0 term, in k order: bitwise the sum of the terms, but for the
    sign of a zero, which ``sum``'s start from 0 makes +0.0 where every term is -0.0."""
    out = deriv(geom, f[0], -geom.d)
    for k in range(1, geom.d):
        out += deriv(geom, f[k], k - geom.d)
    return out


def exterior_derivative(geom: TorusGeometry, omega: np.ndarray, degree: int) -> np.ndarray:
    """Discrete exterior derivative of a p-form given by full component arrays, any degree.

    A full form has the layout of the full B: grid axes first, then its p form slots. (d omega)_{a0..ap}
    = sum_k (-1)^k d_{ak} omega_{a0..^ak..ap}; omega being antisymmetric, each term is d omega with its
    p + 1 form slots rotated k places, a rotation of sign (-1)^(kp).
    """
    d = geom.d
    if degree < 0 or omega.ndim != d + degree:
        raise ValidationError(f"a {degree}-form on T^{d} needs {d + degree} array axes, got {omega.ndim}")
    grid, last = tuple(range(d)), tuple(range(-d, 0))
    dw = np.moveaxis(grad(geom, np.moveaxis(omega, grid, last)), last, grid)  # grid, then d_l, then the slots
    axes = tuple(range(d, d + degree + 1))
    return sum((-1) ** (k * degree) * np.moveaxis(dw, axes, axes[k:] + axes[:k]) for k in range(degree + 1))


@dataclass
class TorusFieldState:
    """(g, b, phi) by their independent components: ``gs``, g's d(d+1)/2 pairs g_ij, i <= j (``sym_pairs``),
    and b = *B (``form_slots``), each with its component axis first. The full g and B are derived, read-only;
    ``from_full`` builds a state from them."""

    geom: TorusGeometry
    gs: np.ndarray
    b: np.ndarray
    phi: np.ndarray
    k: float  # constant flux k eps of H = k eps + dB
    t: float = 0.0

    def __post_init__(self):
        d, shape = self.geom.d, self.geom.shape
        # C order, whatever the caller's layout: each component is one contiguous grid block, which the
        # stencil's slices and the whole-grid einsums run along
        self.gs, self.b, self.phi = (np.ascontiguousarray(f, dtype=float) for f in (self.gs, self.b, self.phi))
        self.k = float(self.k)
        if (self.gs.shape != (len(_SYM[d][0]),) + shape or self.b.shape != (len(_FORM2[d][0]),) + shape
                or self.phi.shape != shape):
            raise ValidationError("field arrays do not match the grid")
        for name, f in (("g", self.gs), ("b", self.b), ("phi", self.phi)):  # a NaN passes every comparison below
            if not np.isfinite(f).all():
                raise ValidationError(f"{name} must be finite at every node")
        if not np.isfinite(self.k):
            raise ValidationError(f"flux strength k must be finite, got {self.k!r}")
        if d == 2 and self.k != 0.0:
            raise ValidationError(f"three-forms vanish on T^2: flux strength k must be 0 for d = 2, got {self.k!r}")

    @classmethod
    def from_full(cls, geom: TorusGeometry, g, B, phi, k: float, t: float = 0.0) -> "TorusFieldState":
        """The state of the full g and B; each of g, B and phi is a field or one value for every node."""
        shape = geom.shape + (geom.d, geom.d)
        return cls(geom, sym_pairs(np.broadcast_to(g, shape)), form_slots(np.broadcast_to(B, shape)),
                   np.broadcast_to(phi, geom.shape).copy(), k, t)

    @property
    def g(self) -> np.ndarray:
        """The full metric, g_ij = g_ji = the pair (i, j) of gs, grid first and the matrix last, read-only: a write
        raises, not vanishes."""
        full = sym_full(self.gs)
        full.flags.writeable = False
        return full

    @property
    def B(self) -> np.ndarray:
        """The full 2-form B_IJ = b, B_JI = 0 - b (+0.0 where b is 0), read-only: a write raises, not vanishes."""
        i, j = _FORM2[self.geom.d]
        full = np.zeros((self.geom.d,) * 2 + self.geom.shape)
        full[i, j], full[j, i] = self.b, 0.0 - self.b
        full = np.moveaxis(full, (0, 1), (-2, -1))
        full.flags.writeable = False
        return full

    def spd_margin(self) -> float:
        """Smallest eigenvalue of g over the grid: ``np.min(np.linalg.eigvalsh(g))``, bit for bit.

        ``lowest_eig_estimate`` screens the nodes and ``eigvalsh`` runs only where the estimate lies
        within SCREEN max|g| of its grid minimum. The estimate is within 2.5e-8 max|g| of
        ``eigvalsh``, well inside SCREEN / 2, so the node holding the minimum always passes, and
        LAPACK solves each matrix on its own, so its value is the one the full batch gives. The
        same holds for one of several bitwise-equal candidates, which stands for all of them.
        """
        gs = self.gs.reshape(self.gs.shape[0], -1)
        mu = lowest_eig_estimate(gs, float(np.max(np.abs(gs))) or 1.0)
        candidates = gs[:, mu <= np.min(mu) + SCREEN]
        if np.all(candidates == candidates[:, :1]):  # a constant metric: every node a candidate, one eigvalsh
            candidates = candidates[:, :1]
        return float(np.min(np.linalg.eigvalsh(sym_full(candidates))))

    def copy(self) -> "TorusFieldState":
        return TorusFieldState(self.geom, self.gs.copy(), self.b.copy(), self.phi.copy(), self.k, self.t)


def flat_state(geom: TorusGeometry, k: float = 0.0) -> TorusFieldState:
    """g = Id, B = 0, phi = 0, constant flux of strength k (volume form)."""
    return TorusFieldState.from_full(geom, np.eye(geom.d), 0.0, 0.0, k)


def perturbed_state(geom: TorusGeometry, seed: int, amplitude: float = 0.05, k: float = 0.0,
                    kmax: int = KMAX) -> TorusFieldState:
    """Flat state plus smooth trigonometric perturbations with modes up to kmax.

    Keep N >= 8 kmax (``grf torus`` rejects a coarser grid).  At kmax 2 and N = 8
    the highest modes have 4 nodes a period, where the stencil's symbol is 15 %
    off, and on T^2 lambda can then fall along ``run_torus_flow``.
    """
    rng = np.random.default_rng(seed)
    st = flat_state(geom, k)
    xs = geom.grids()
    two_pi = 2.0 * np.pi / geom.L

    def mode():
        wave = np.zeros(geom.shape)
        for _ in range(2):
            kvec = rng.integers(-kmax, kmax + 1, size=geom.d)
            phase = rng.uniform(0, 2 * np.pi)
            arg = sum(two_pi * kvec[i] * xs[i] for i in range(geom.d))
            wave += rng.uniform(0.3, 1.0) * np.sin(arg + phase)
        return wave

    for p in range(st.gs.shape[0]):  # the pairs (i, j), i <= j, of g in turn
        st.gs[p] += amplitude * mode()
    # the pairs (i, j) = (0, 1), (0, 2), (1, 2) of B_ij in turn: b_2 = B_01, b_1 = B_20 = -B_02, b_0 = B_12
    for c, sign in ([(2, 1.0), (1, -1.0), (0, 1.0)] if geom.d == 3 else [(0, 1.0)]):
        st.b[c] += sign * (amplitude * mode())
    st.phi += amplitude * mode()
    st = TorusFieldState(geom, st.gs, st.b, st.phi, k)  # the edits above are validated like any state
    if st.spd_margin() <= SPD_FLOOR:
        raise ValidationError("perturbation amplitude too large: g not positive definite")
    return st


# -- differential operators on the metric -------------------------------------


def flux_H(state: TorusFieldState) -> np.ndarray:
    """The flux density h = H_012 = k + div(b), b = *B, of H = h eps; zero on T^2."""
    if state.geom.d == 2:
        return np.zeros(state.geom.shape)
    return state.k + div(state.geom, state.b)


def christoffel(state: TorusFieldState, ginv: np.ndarray) -> np.ndarray:
    """Gamma^k_p on the pairs p = (i, j), i <= j, of ``_SYM``: shape (d, d(d+1)/2) + grid, k first.

    Gamma^k_ij = g^{kl} Gamma_{l,ij} is symmetric in ij, so it is formed on the pairs only: the partials
    of the stored g_p, 2 Gamma_{l,ij} = d_i g_jl + d_j g_il - d_l g_ij read from them through ``_SYM``'s
    tables by whole grid blocks, and one einsum with g^-1, written into the partials' buffer, which the
    sum no longer reads.
    """
    first, second = _SYM[state.geom.d][3:]
    dg = grad(state.geom, state.gs)  # (l, p) = d_l g_p
    flat = dg.reshape((-1,) + dg.shape[2:])
    rhs = flat[first]  # (l, q) = 2 Gamma_{l,q}, summed in place
    rhs += flat[second]
    rhs -= dg
    gamma = np.einsum("kl...,lq...->kq...", ginv, rhs, out=dg)
    gamma *= 0.5
    return gamma


def ricci_tensor(geom: TorusGeometry, gamma: np.ndarray, expanded: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Classical Ricci tensor on the pairs p = (i, j), i <= j, with the mixed-derivative term symmetrized.

    Rc_ij = d_k Gamma^k_ij - d_(i v_j) + v_l Gamma^l_ij - Gamma^k_il Gamma^l_kj with v_j = Gamma^k_kj and
    d_(i v_j) = 1/2 (d_i v_j + d_j v_i), equal analytically. ``gamma`` is Gamma on the pairs, ``expanded``
    its full (k, i, j) copy and v its trace, all from ``torus_fields``; the last term runs over the full
    copy and is read at the pairs.
    """
    iu, ju = _SYM[geom.d][:2]
    rc = div(geom, gamma)
    rc -= _symmetrized_pairs(grad(geom, v))  # grad v: (i, j) = d_i v_j
    rc += np.einsum("l...,lp...->p...", v, gamma)
    rc -= np.einsum("kil...,lkj...->ij...", expanded, expanded)[iu, ju]
    return rc


def laplace_beltrami(geom: TorusGeometry, w: np.ndarray, wginv: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami (1/w) d_i (w g^{ij} d_j f), w = sqrt(det g), from w, w g^-1 and df = grad f."""
    lap = div(geom, np.einsum("ij...,j...->i...", wginv, df))
    return np.divide(lap, w, out=lap)


def hessian(geom: TorusGeometry, gamma: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Covariant Hessian on the pairs i <= j from Gamma on the pairs and df = grad f: 1/2 (d_i d_j f + d_j d_i f)
    - Gamma^k_ij d_k f, the two discrete mixed partials (equal but for round-off) averaged."""
    hess = _symmetrized_pairs(grad(geom, df))  # grad df: (i, j) = d_i d_j f
    hess -= np.einsum("kp...,k...->p...", gamma, df)
    return hess


def scaled_cofactors(gs: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(s, adj, det): s the power of two with s <= max|g| < 2 s (1 for g = 0), and the adjugate (full, the
    matrix axes first) and determinant of g / s, of a field of symmetric 2 x 2 or 3 x 3 matrices given by their
    pairs (``_SYM``), the pair axis first.

    adj is the cofactor matrix, det the cofactor expansion along the first row. Scaling by a power of two is
    exact, so they are g's own cofactors times s^(1-d) and s^-d wherever those neither over- nor underflow;
    on g / s, every entry below 2 in magnitude, they stay finite at any scale of g.
    """
    top = max(float(np.max(gs)), -float(np.min(gs)))
    scale = 2.0 ** (math.frexp(top)[1] - 1) if top > 0.0 else 1.0
    if gs.shape[0] == 3:
        a, b, c = gs / scale
        det = a * c - b * b
        d, adj = 2, (c, -b, -b, a)
    else:
        a, b, c, e, f, i = gs / scale
        c00, c01, c02 = e * i - f * f, c * f - b * i, b * f - c * e
        c11, c12, c22 = a * i - c * c, b * c - a * f, a * e - b * b
        det = a * c00 + b * c01 + c * c02
        d, adj = 3, (c00, c01, c02, c01, c11, c12, c02, c12, c22)
    return scale, np.stack(adj).reshape((d, d) + gs.shape[1:]), det


def _inverse(scale: float, adj: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g^-1 and det g from ``scaled_cofactors``, in place: adj(g / s) / (det(g / s) s) is bitwise adj g / det g."""
    adj /= det * scale
    det *= np.float64(scale) ** adj.shape[0]
    return adj, det


def inverse_and_det(gs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of a field of symmetric 2 x 2 or 3 x 3 matrices given by their pairs (``_SYM``),
    the pair axis first: g^-1 = adj g / det g from the cofactors (``scaled_cofactors``), returned as full
    matrices on the first two axes, symmetric bitwise."""
    return _inverse(*scaled_cofactors(gs))


def lowest_eig_estimate(gs: np.ndarray, scale: float) -> np.ndarray:
    """Closed-form lowest eigenvalue of each symmetric 2 x 2 or 3 x 3 matrix g / scale, given by its pairs
    gs (``_SYM``, the pair axis first), to ~3e-8 max|g / scale|.

    2 x 2: (a + c)/2 - hypot((a - c)/2, b). 3 x 3: the trigonometric form (O. K. Smith, CACM 4(4), 1961),
    q + 2p cos(arccos(r)/3 + 2 pi/3) with q = tr g / 3, p^2 = |g - q|^2 / 6 and r = det((g - q)/p) / 2; it
    loses half the digits where the two lowest eigenvalues meet (r near 1), so it is a screen for
    ``spd_margin``, not a value. With scale = max|g| no square overflows.
    """
    if gs.shape[0] == 3:
        a, b, c = gs / scale
        return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    a, b, c, e, f, i = gs / scale
    q = (a + e + i) / 3.0
    a, e, i = a - q, e - q, i - q
    p = np.sqrt((a * a + e * e + i * i + 2.0 * (b * b + c * c + f * f)) / 6.0)
    s = np.where(p > 0.0, p, 1.0)  # p = 0: g = q Id, and g - q = 0 gives r = 0
    a, e, i, b, c, f = a / s, e / s, i / s, b / s, c / s, f / s
    r = np.clip(0.5 * (a * (e * i - f * f) - b * (b * i - f * c) + c * (b * f - e * c)), -1.0, 1.0)
    return q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)


def degenerate_nodes(state: TorusFieldState) -> float:
    margin = state.spd_margin()
    if margin < SPD_FLOOR:
        raise DegenerateMetric(f"metric lost positivity: min eigenvalue {margin:.3e}")
    return margin


def positivity_check(state: TorusFieldState, scale: float, adj: np.ndarray, det: np.ndarray) -> float | None:
    """A stage's positivity check: raises DegenerateMetric exactly where ``degenerate_nodes`` does, that is
    iff ``spd_margin()`` < SPD_FLOOR, and returns that margin where it has to compute it, else None.

    It reads the ``scaled_cofactors`` (s, adj, det) of g. tr g, m2 = c00 + c11 + c22 and det g all positive
    make g positive definite (the coefficients of its characteristic polynomial then alternate in sign), with
    lambda_min >= det / m2 = 1 / tr g^-1 (on T^2, m2 is tr g). Where that bound, with ALLOWANCE taken off
    tr, m2 and det of g / s, clears SPD_FLOOR + ALLOWANCE s at every node, ``spd_margin`` is at least
    SPD_FLOOR; elsewhere ``degenerate_nodes`` decides.
    """
    pair = _SYM[adj.shape[0]][2]
    tr = sum(state.gs[pair[i, i]] for i in range(adj.shape[0]))
    m2 = np.einsum("ii...->...", adj)
    bound = SPD_FLOOR / scale + ALLOWANCE
    if np.all((tr > ALLOWANCE * scale) & (m2 > ALLOWANCE) & (det - ALLOWANCE >= bound * (m2 + ALLOWANCE))):
        return None
    return degenerate_nodes(state)


@dataclass(frozen=True)
class TorusFields:
    """Read-only geometry of one state; build it with ``torus_fields``. Every member has its component axes
    first and the grid last; symmetric tensors are on ``_SYM``'s pairs. ``margin``, ``potential`` and ``dv``,
    which only records read (the trace row, the step size, GR and lambda), are formed on first read."""

    state: TorusFieldState
    ginv: np.ndarray  # full (d, d)
    w: np.ndarray  # sqrt(det g)
    wginv: np.ndarray  # w g^-1, full (d, d): the coefficient of every ``laplace_beltrami``
    gamma: np.ndarray  # Gamma^k_p
    v: np.ndarray  # Gamma^k_kj
    rc: np.ndarray
    h: np.ndarray  # flux density H_012
    h_norm_sq: np.ndarray  # |H|^2_g = 6 h^2 / det g
    dphi: np.ndarray  # d_l phi
    dphi_up: np.ndarray  # g^{kl} d_l phi

    @property
    def geom(self) -> TorusGeometry:
        return self.state.geom

    @functools.cached_property
    def margin(self) -> float:
        """Smallest eigenvalue of g over the grid (``degenerate_nodes``)."""
        return degenerate_nodes(self.state)

    @functools.cached_property
    def potential(self) -> np.ndarray:
        """R - |H|^2 / 12."""
        return np.einsum("ij...,ij...->...", self.ginv, self.rc[_SYM[self.geom.d][2]]) - self.h_norm_sq / 12.0

    @functools.cached_property
    def dv(self) -> np.ndarray:
        """w h^d, the measure dV of each node."""
        return self.w * self.geom.h**self.geom.d


def torus_fields(state: TorusFieldState) -> TorusFields:
    """The one place each field of ``TorusFields`` is computed; raises on lost positivity (``positivity_check``)."""
    geom = state.geom
    cofactors = scaled_cofactors(state.gs)
    margin = positivity_check(state, *cofactors)
    ginv, det = _inverse(*cofactors)
    w = np.sqrt(det)
    gamma = christoffel(state, ginv)
    expanded = gamma[:, _SYM[geom.d][2]]  # (k, i, j): Gamma's one full copy
    v = np.einsum("kkj...->j...", expanded)
    rc = ricci_tensor(geom, gamma, expanded, v)
    h = flux_H(state)
    h_norm_sq = 6.0 * h * h / det
    dphi = grad(geom, state.phi)
    dphi_up = np.einsum("kl...,l...->k...", ginv, dphi)
    fields = TorusFields(state, ginv, w, w * ginv, gamma, v, rc, h, h_norm_sq, dphi, dphi_up)
    if margin is not None:  # the check computed the margin: the record keeps it
        vars(fields)["margin"] = margin
    return fields


def torus_rhs(fields: TorusFields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dt g on the pairs, dt b, dt phi) of the exact-case flow with H = h eps, in the closed forms above, each
    laid out as the state's gs, b and phi, and each summed in place in the order of its closed form."""
    geom, ginv, h, dphi, dphi_up = fields.geom, fields.ginv, fields.h, fields.dphi, fields.dphi_up
    dg = np.multiply(fields.rc, -2.0)
    dg += fields.h_norm_sq / 6.0 * fields.state.gs
    hess = hessian(geom, fields.gamma, dphi)
    hess *= 4.0
    dg -= hess
    if geom.d == 3:  # dt b^k = X^k = g^{kl} (d_l h - h (v_l + 2 d_l phi))
        x = np.multiply(dphi, 2.0)
        x += fields.v
        x *= h
        dh = grad(geom, h)
        dh -= x
        db = np.einsum("kl...,l...->k...", ginv, dh)
    else:
        db = np.zeros_like(fields.state.b)
    dphi_dt = laplace_beltrami(geom, fields.w, fields.wginv, dphi)
    dphi_dt -= 2.0 * np.einsum("i...,i...->...", dphi_up, dphi)
    dphi_dt += fields.h_norm_sq / 12.0
    return dg, db, dphi_dt


def christoffel_full(geom: TorusGeometry, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Gamma^k_ij on all d^3 components, (k, i, j) + grid, from the full g and g^-1 with their matrix axes first
    (an oracle for ``christoffel``)."""
    dg = grad(geom, g)  # (l, i, j) = d_l g_ij
    term_i = np.moveaxis(dg, 2, 0)  # [l, i, j] <- d_i g_{jl}
    term_j = np.swapaxes(term_i, 1, 2)  # [l, i, j] <- d_j g_{il}
    return 0.5 * np.einsum("kl...,lij...->kij...", ginv, term_i + term_j - dg)


def ricci_tensor_full(geom: TorusGeometry, gamma: np.ndarray) -> np.ndarray:
    """``ricci_tensor`` on all d^2 components, with d_k Gamma^k_ij on all d^3 components of Gamma (oracle)."""
    v = np.einsum("kkj...->j...", gamma)
    dv = grad(geom, v)  # (i, j) = d_i v_j
    quad1 = np.einsum("l...,lij...->ij...", v, gamma)
    quad2 = np.einsum("kil...,lkj...->ij...", gamma, gamma)
    return div(geom, gamma) - 0.5 * (dv + np.swapaxes(dv, 0, 1)) + quad1 - quad2


def hessian_full(geom: TorusGeometry, gamma: np.ndarray, df: np.ndarray) -> np.ndarray:
    """``hessian`` on all d^2 components, from the full Gamma (oracle)."""
    ddf = grad(geom, df)
    return 0.5 * (ddf + np.swapaxes(ddf, 0, 1)) - np.einsum("kij...,k...->ij...", gamma, df)


def ricci_dilaton_rhs(state: TorusFieldState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H-free oracle for ``torus_rhs``: Ricci flow coupled to the dilaton only, as (dt g on the pairs, dt b = 0,
    dt phi).

    It shares only the stencils with ``torus_fields``: Gamma, Rc and the Hessian come from the full g by the
    full-tensor formulas above, g^-1 and det g from ``np.linalg``, and it writes its own Laplacian of phi.
    """
    geom, g = state.geom, state.g
    ginv, w = np.linalg.inv(g), np.sqrt(np.linalg.det(g))
    g, ginv = (np.moveaxis(m, (-2, -1), (0, 1)) for m in (g, ginv))  # matrix axes first, as grad reads them
    gamma = christoffel_full(geom, g, ginv)
    dphi = grad(geom, state.phi)
    dg = -2.0 * ricci_tensor_full(geom, gamma) - 4.0 * hessian_full(geom, gamma, dphi)
    lap_phi = div(geom, np.einsum("ij...,j...->i...", w * ginv, dphi)) / w
    dphi_rhs = lap_phi - 2.0 * np.einsum("ij...,i...,j...->...", ginv, dphi, dphi)
    return sym_pairs(np.moveaxis(dg, (0, 1), (-2, -1))), np.zeros_like(state.b), dphi_rhs


def dirichlet_operator(fields: TorusFields, u: np.ndarray) -> np.ndarray:
    """lambda's operator L u = -4 Lap_g u + (R - |H|^2/12) u, one ``laplace_beltrami`` call."""
    return -4.0 * laplace_beltrami(fields.geom, fields.w, fields.wginv, grad(fields.geom, u)) + fields.potential * u


def generalized_scalar_field(fields: TorusFields) -> np.ndarray:
    """Nodewise R - 1/12 |H|^2_g - 4 e^phi Lap_g e^-phi = e^phi L e^-phi, L = ``dirichlet_operator``."""
    return np.exp(fields.state.phi) * dirichlet_operator(fields, np.exp(-fields.state.phi))


# -- lambda functional ---------------------------------------------------------


LAMBDA_RESIDUAL_TOL = 1e-8  # bound on ||L u - lambda u||_dV / (1 + |lambda|)
LAMBDA_MAX_ITER = 500


def _flat_inverse(geom: TorusGeometry):
    """FFT inverse of -4 Lap + (2 pi / L)^2 on the flat torus; deriv's symbol is i (8 sin kh - sin 2kh) / 6h.

    The shift is the lowest nonzero mode's |k|^2, so it scales with the operator, and it is 1 at L = 2 pi.
    """
    kh = [2.0 * np.pi * np.fft.fftfreq(geom.N)] * (geom.d - 1) + [2.0 * np.pi * np.fft.rfftfreq(geom.N)]
    shift = (2.0 * np.pi / geom.L) ** 2
    inv = 1.0 / (4.0 * sum(np.ix_(*[((8.0 * np.sin(t) - np.sin(2.0 * t)) / (6.0 * geom.h)) ** 2 for t in kh])) + shift)
    return lambda x: np.fft.irfftn(np.fft.rfftn(x.reshape(geom.shape)) * inv, geom.shape, range(geom.d)).reshape(x.shape)


def lambda_torus(fields: TorusFields, u0: np.ndarray | None = None, return_vector: bool = False):
    """Minimum of int(4 |grad u|^2_g + (R - |H|^2/12) u^2) dV over unit-mass u.

    The W-symmetric standard form of (W L) u = lambda W u, W = dV, throughout: the operator
    A = W^1/2 L W^-1/2 on v = W^1/2 u, so ||A v - q v|| = ||L u - q u||_W. A unit start v, from ``u0``
    (constant if None), is rated by q = v^T A v and that residual; one that misses the bound
    LAMBDA_RESIDUAL_TOL (1 + |q|) goes to LOBPCG (Knyazev 2001), preconditioned by W^1/2 M W^1/2 with
    M = ``_flat_inverse``, whose closing Rayleigh-Ritz step on the vector it returns gives lambda and the
    residual. A warm start that misses the bound is retried once from the constant; a solve that misses
    it from there raises.

    The solver runs in units where the period is in [4, 8): with L = 2^e L', lengths scale by 2^-e, so A,
    lambda and the residual scale by 4^e, and A and the preconditioner read W^1/2 times 2^-(de // 2), a
    factor A cancels. Powers of two are exact and e = 0 for L in [4, 8), the default 2 pi included; at any
    other period the solver's products stay as far from overflow as they are there.
    """
    geom = fields.geom
    e = math.frexp(geom.L)[1] - 3
    unit = math.ldexp(1.0, 2 * e)  # the bound's 1, in the solver's units
    root = np.sqrt(fields.dv).reshape(-1, 1)  # W^1/2
    inner = np.ldexp(root, -(geom.d * e // 2))
    outer = unit * inner

    def operator(v):  # 4^e A, A = W^1/2 L W^-1/2 on columns
        return outer * dirichlet_operator(fields, (v / inner).reshape(geom.shape)).reshape(v.shape)

    constant = np.ones(geom.shape)
    # a warm start near a cluster of low eigenvalues can stall where the constant start converges
    for start in [constant] if u0 is None else [np.asarray(u0, dtype=float), constant]:
        v = root * start.reshape(-1, 1)
        v /= np.linalg.norm(v)
        av = operator(v)
        q = float(np.vdot(v, av))
        res = float(np.linalg.norm(av - q * v))
        if res > LAMBDA_RESIDUAL_TOL * (unit + abs(q)):
            from scipy.sparse.linalg import lobpcg
            flat_inverse = _flat_inverse(TorusGeometry(geom.d, geom.N, math.ldexp(geom.L, -e)))
            # lambda <= q, so the bound at q is within the bound at lambda: 0.9 of it leaves room for round-off
            tol = 0.9 * LAMBDA_RESIDUAL_TOL * (unit + max(0.0, -q))
            with warnings.catch_warnings():  # its notes on a missed tol: the residual it returns is the report
                warnings.simplefilter("ignore", UserWarning)
                lam, v, residuals = lobpcg(operator, v, M=lambda x: inner * flat_inverse(inner * x), tol=tol,
                                           maxiter=LAMBDA_MAX_ITER, largest=False, retResidualNormsHistory=True)
            q, res = float(lam[0]), float(residuals[-1])
        if res <= LAMBDA_RESIDUAL_TOL * (unit + abs(q)):
            break
    else:
        q, res = math.ldexp(q, -2 * e), math.ldexp(res, -2 * e)
        raise EigensolverStalled(f"lambda solver stalled at weighted residual {res:.3e}, lambda {q!r}")
    q = math.ldexp(q, -2 * e)
    u = (v / root).reshape(geom.shape)
    if float(np.sum(root * v)) < 0:  # sum(W u)
        u = -u
    return (q, u) if return_vector else q


def eh_density_identity_residual(state: TorusFieldState) -> float:
    """|int GR u^2 dV - (int (R - |H|^2/12) u^2 + 4 |grad u|^2_g dV)| with u = e^-phi.

    Summation by parts, exact to round-off for the divergence-form Laplacian that GR reads; the right side
    reads ``grad`` and g^-1 instead. Run on random states before trusting the lambda solver's energy.
    """
    fields = torus_fields(state)
    dv, u = fields.dv, np.exp(-state.phi)
    du = grad(state.geom, u)
    lhs = float(np.sum(dv * generalized_scalar_field(fields) * u * u))
    rhs = float(np.sum(dv * (fields.potential * u * u + 4.0 * np.einsum("i...,ij...,j...->...", du, fields.ginv, du))))
    return abs(lhs - rhs) / (1.0 + abs(lhs))


# -- time stepping ---------------------------------------------------------------


@dataclass
class TorusParams:
    T: float = 1.0
    cfl: float = 0.2
    max_steps: int = 1_000_000
    compute_lambda: bool = True

    def __post_init__(self):
        check_positive_finite(T=self.T, cfl=self.cfl)
        check_max_steps(self.max_steps)


@dataclass
class TorusTrace:
    t: list[float] = field(default_factory=list)
    minR: list[float] = field(default_factory=list)
    meanR: list[float] = field(default_factory=list)
    lam: list[float] = field(default_factory=list)
    spd_margin: list[float] = field(default_factory=list)
    g_norm: list[float] = field(default_factory=list)
    B_norm: list[float] = field(default_factory=list)
    phi_norm: list[float] = field(default_factory=list)
    aborted: str | None = None
    final_state: TorusFieldState | None = None

    COLUMNS = ("t", "minR", "meanR", "lambda", "spd_margin", "g_norm", "B_norm", "phi_norm")

    def rows(self):
        return zip(self.t, self.minR, self.meanR, self.lam, self.spd_margin, self.g_norm, self.B_norm, self.phi_norm)


def _rk4_torus(state: TorusFieldState, dt: float, rhs, k1) -> TorusFieldState:
    """One RK4 step; every stage state goes through the constructor, which validates its own arrays.
    A stage it rejects means the step itself broke their shape or finiteness: DegenerateMetric."""
    def shifted(fac, rate, t):  # (gs, b, phi) + fac * rate at time t; rate is read one field at a time
        return TorusFieldState(state.geom, *(f + fac * r for f, r in zip((state.gs, state.b, state.phi), rate)),
                               state.k, t)

    try:
        k2 = rhs(torus_fields(shifted(dt / 2, k1, state.t + dt / 2)))
        k3 = rhs(torus_fields(shifted(dt / 2, k2, state.t + dt / 2)))
        k4 = rhs(torus_fields(shifted(dt, k3, state.t + dt)))
        return shifted(dt / 6, (x1 + 2 * x2 + 2 * x3 + x4 for x1, x2, x3, x4 in zip(k1, k2, k3, k4)), state.t + dt)
    except ValidationError as exc:
        raise DegenerateMetric(f"RK4 stage at t = {state.t!r}: {exc}") from exc


def run_torus_flow(state: TorusFieldState, params: TorusParams, rhs=torus_rhs) -> TorusTrace:
    """RK4 run with diffusion-limited steps, returning its trace whatever stops it after the initial record.

    ``runs.integrate`` runs the loop. The step dt = cfl h^2 lambda_min(g), cfl h^2 / lambda_max(g^-1) at the
    slowest node, is recomputed per step and cut to land exactly on T. Each RK4 stage state goes through the
    constructor, which asserts that every field has its shape and is finite (g and B are symmetric and
    antisymmetric by construction). ``aborted`` is None when the run reached T and otherwise says why not:
    lost positivity or a rejected RK4 stage (DegenerateMetric), a stalled lambda solve, step underflow or the
    ``max_steps`` budget. ``final_state`` is the last state reached; a failure on the initial state (no
    positive metric, a stalled first lambda) raises.
    """
    trace = TorusTrace()
    lam_vec = None

    def observe(st: TorusFieldState) -> TorusFields:
        nonlocal lam_vec
        f = torus_fields(st)
        gr, lam = generalized_scalar_field(f), float("nan")
        if params.compute_lambda:
            lam, lam_vec = lambda_torus(f, u0=lam_vec, return_vector=True)  # may raise: no partial row
        trace.t.append(st.t)
        trace.minR.append(float(np.min(gr)))
        trace.meanR.append(float(np.mean(gr)))
        trace.lam.append(lam)
        trace.spd_margin.append(f.margin)
        trace.g_norm.append(float(np.max(np.abs(st.gs))))  # max|g|: g holds each pair in one or two slots
        trace.B_norm.append(float(np.max(np.abs(st.b))))  # max|B|: B holds b, 0 - b and zeros
        trace.phi_norm.append(float(np.max(np.abs(st.phi))))
        return f

    trace.final_state, trace.aborted = integrate(
        state.copy(), params.T, params.max_steps, observe, rhs, lambda f: params.cfl * f.geom.h**2 * f.margin,
        lambda st, dt, k1: _rk4_torus(st, dt, rhs, k1))
    return trace


# -- binary field dumps ----------------------------------------------------------

DUMP_MAGIC = b"GRFD"
DUMP_VERSION = 1


def write_field_dump(state: TorusFieldState, path) -> None:
    """Flat binary dump: header (magic 'GRFD', uint32 version, d, N, field
    count) then row-major float64 payloads g, B, phi; g and B are the full tensors derived from gs and b."""
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        np.array([DUMP_VERSION, state.geom.d, state.geom.N, 3], dtype="<u4").tofile(fh)
        for f in (state.g, state.B, state.phi):
            f.astype("<f8").tofile(fh)


def read_field_dump(path) -> dict:
    """The fields of a ``write_field_dump`` file. A bad magic or header (version 1, d in {2, 3}, N a valid
    grid size, 3 fields) or a payload other than 8 N^d (2 d^2 + 1) bytes raises ``ValidationError``."""
    with open(path, "rb") as fh:
        magic, header = fh.read(4), fh.read(16)
        if magic != DUMP_MAGIC:
            raise ValidationError(f"bad magic {magic!r}")
        if len(header) != 16:
            raise ValidationError("dump header cut short")
        version, d, n, nfields = (int(x) for x in np.frombuffer(header, dtype="<u4"))
        if version != DUMP_VERSION or nfields != 3:
            raise ValidationError("unsupported dump layout")
        shape = TorusGeometry(d, n).shape  # rejects d outside {2, 3} and a bad N
        nodes = n**d
        expected, size = 8 * nodes * (2 * d * d + 1), os.fstat(fh.fileno()).st_size - 20
        if size != expected:
            raise ValidationError(f"dump payload holds {size} bytes, d = {d} and N = {n} need {expected}")
        g, b, phi = np.split(np.fromfile(fh, dtype="<f8"), [nodes * d * d, 2 * nodes * d * d])
    return {"d": d, "N": n, "g": g.reshape(shape + (d, d)), "B": b.reshape(shape + (d, d)), "phi": phi.reshape(shape)}
