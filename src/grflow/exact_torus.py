"""Generalized Ricci flow on flat tori: fields (g, B, phi) with flux H = k eps + dB.

Explicit exact-case equations:

    dt g_ij  = -2 Rc_ij + 1/2 H_ikl H_j^kl - 4 grad_i grad_j phi
    dt B_ij  = div^k H_kij - 2 (grad^k phi) H_kij
    dt phi   = Lap_g phi - 2 |grad phi|^2 + 1/12 |H|^2

and the scalar-curvature field R - 1/12 |H|^2_g - 4 e^phi Lap_g e^-phi.

The flux is a closed 3-form, so on T^3 it is a top form H = h eps with one component, the density
h = H_012 = k + div(*B), (*B)_k = 1/2 eps_kij B_ij; on T^2 it vanishes. Every flux term is then an
algebraic identity of a top form in 3D (eps the coordinate symbol, v_l = Gamma^m_{lm}):

    H_ikl H_j^kl = (2 h^2 / det g) g_ij,    |H|^2 = 6 h^2 / det g,
    grad_l H_kij = (d_l h - h v_l) eps_kij, so dt B_ij = eps_kij X^k,
    X^k = g^{kl} (d_l h - h (v_l + 2 d_l phi)).

Discretization: 4th-order central differences on a uniform periodic grid.
``deriv`` is the only stencil: ``grad`` stacks its partials with the derivative
index first among the component axes, and ``div`` contracts that index again.
The Laplace-Beltrami operator is kept in divergence form, which makes it
exactly self-adjoint for the discrete dV-weighted inner product (central
difference matrices are antisymmetric circulants): lambda_torus's eigenproblem
(W L) u = lambda W u is symmetric, and the Einstein-Hilbert quadrature exact.

Geometry is built once per state: state -> ``torus_fields`` -> a read-only
``TorusFields`` record (positivity margin, g^-1, sqrt(det g), Gamma, Rc, h, |H|^2)
that the right sides, the scalar field and lambda all read.

Contractions run in one fixed order: ``_PAIR``-planned einsum or batched matmul for
the batched 3 x 3 products, a plain einsum for the cheap vector ones. g^-1 and det g
are closed-form cofactors (``inverse_and_det``), so g^-1 is symmetric bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, EigensolverStalled, StepUnderflow, ValidationError

SPD_FLOOR = 1e-8
# numpy's planned pairwise route for a two-operand einsum: several times faster than the default
# loop on the batched small-tensor products here (a path search per call costs as much again)
_PAIR = ["einsum_path", (0, 1)]
# (i, j) with eps_kij = 1 for k = 0, 1, 2: a 2-form's slots (i, j) and (j, i) hold +-(*B)_k
_EPS_I, _EPS_J = [1, 2, 0], [2, 0, 1]


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
        if self.L <= 0:
            raise ValidationError("period must be positive")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.d

    def axes(self) -> np.ndarray:
        """Coordinates along one axis (cell centers at j*h)."""
        return np.arange(self.N) * self.h

    def grids(self) -> list[np.ndarray]:
        x = self.axes()
        return list(np.meshgrid(*([x] * self.d), indexing="ij"))


def deriv(geom: TorusGeometry, f: np.ndarray, axis: int) -> np.ndarray:
    """4th-order central first derivative along a grid axis (periodic)."""
    return (
        -np.roll(f, -2, axis=axis)
        + 8.0 * np.roll(f, -1, axis=axis)
        - 8.0 * np.roll(f, 1, axis=axis)
        + np.roll(f, 2, axis=axis)
    ) / (12.0 * geom.h)


def grad(geom: TorusGeometry, f: np.ndarray) -> np.ndarray:
    """Partials of a scalar or stacked field: shape grid + (d,) + components, (.., l, ...) = d_l f."""
    return np.stack([deriv(geom, f, l) for l in range(geom.d)], axis=geom.d)


def div(geom: TorusGeometry, f: np.ndarray) -> np.ndarray:
    """Divergence over the first component index: sum_k d_k f[.., k, ...], the contraction of ``grad``."""
    return sum(deriv(geom, f[(slice(None),) * geom.d + (k,)], k) for k in range(geom.d))


def exterior_derivative(geom: TorusGeometry, omega: np.ndarray, degree: int) -> np.ndarray:
    """Discrete exterior derivative of a p-form given by full component arrays, any degree.

    (d omega)_{a0..ap} = sum_k (-1)^k d_{ak} omega_{a0..^ak..ap}; omega being antisymmetric, each term
    is d omega with its p + 1 form slots rotated k places, a rotation of sign (-1)^(kp).
    """
    d = geom.d
    if degree < 0 or omega.ndim != d + degree:
        raise ValidationError(f"a {degree}-form on T^{d} needs {d + degree} array axes, got {omega.ndim}")
    dw = grad(geom, omega)
    axes = tuple(range(d, d + degree + 1))
    return sum((-1) ** (k * degree) * np.moveaxis(dw, axes, axes[k:] + axes[:k]) for k in range(degree + 1))


@dataclass
class TorusFieldState:
    geom: TorusGeometry
    g: np.ndarray
    B: np.ndarray
    phi: np.ndarray
    k: float  # constant flux k eps of H = k eps + dB
    t: float = 0.0

    def __post_init__(self):
        d, shape = self.geom.d, self.geom.shape
        # C order: a planned einsum sums in an order that follows its operands' memory layout, and
        # the right side should not depend on how the caller laid the arrays out
        self.g = np.ascontiguousarray(self.g, dtype=float)
        self.B = np.ascontiguousarray(self.B, dtype=float)
        self.phi = np.ascontiguousarray(self.phi, dtype=float)
        self.k = float(self.k)
        if self.g.shape != shape + (d, d) or self.B.shape != shape + (d, d) or self.phi.shape != shape:
            raise ValidationError("field arrays do not match the grid")
        if not np.isfinite(self.k):
            raise ValidationError(f"flux strength k must be finite, got {self.k!r}")
        if d == 2 and self.k != 0.0:
            raise ValidationError(f"three-forms vanish on T^2: flux strength k must be 0 for d = 2, got {self.k!r}")
        if np.max(np.abs(self.g - np.swapaxes(self.g, -1, -2))) > 1e-12 * max(1.0, float(np.max(np.abs(self.g)))):
            raise ValidationError("g must be symmetric at every node")
        if np.max(np.abs(self.B + np.swapaxes(self.B, -1, -2))) > 1e-12 * max(1.0, float(np.max(np.abs(self.B))), 1e-30):
            raise ValidationError("B must be antisymmetric at every node")

    def spd_margin(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.g)))

    def copy(self) -> "TorusFieldState":
        return TorusFieldState(self.geom, self.g.copy(), self.B.copy(), self.phi.copy(), self.k, self.t)


def flat_state(geom: TorusGeometry, k: float = 0.0) -> TorusFieldState:
    """g = Id, B = 0, phi = 0, constant flux of strength k (volume form)."""
    eye = np.broadcast_to(np.eye(geom.d), geom.shape + (geom.d, geom.d)).copy()
    return TorusFieldState(geom, eye, np.zeros(geom.shape + (geom.d, geom.d)), np.zeros(geom.shape), k)


def perturbed_state(geom: TorusGeometry, seed: int, amplitude: float = 0.05, k: float = 0.0,
                    kmax: int = 2) -> TorusFieldState:
    """Flat state plus smooth trigonometric perturbations with modes up to kmax."""
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

    d = geom.d
    for i in range(d):
        for j in range(i, d):
            w = amplitude * mode()
            st.g[..., i, j] += w
            if i != j:
                st.g[..., j, i] += w
    for i in range(d):
        for j in range(i + 1, d):
            w = amplitude * mode()
            st.B[..., i, j] += w
            st.B[..., j, i] -= w
    st.phi += amplitude * mode()
    if st.spd_margin() <= SPD_FLOOR:
        raise DegenerateMetric("perturbation amplitude too large: g not positive definite")
    return st


# -- differential operators on the metric -------------------------------------


def flux_H(state: TorusFieldState) -> np.ndarray:
    """The flux density h = H_012 = k + div(*B), (*B)_k = 1/2 eps_kij B_ij, of H = h eps; zero on T^2."""
    if state.geom.d == 2:
        return np.zeros(state.geom.shape)
    B = state.B
    return state.k + div(state.geom, 0.5 * (B[..., _EPS_I, _EPS_J] - B[..., _EPS_J, _EPS_I]))


def christoffel(state: TorusFieldState, ginv: np.ndarray) -> np.ndarray:
    """Gamma^k_{ij} per node, shape grid + (d, d, d) with k first."""
    d = state.geom.d
    dg = grad(state.geom, state.g)  # (l, i, j) = d_l g_ij
    term_i = np.moveaxis(dg, -1, -3)  # [l, i, j] <- d_i g_{jl}
    term_j = np.swapaxes(term_i, -1, -2)  # [l, i, j] <- d_j g_{il}
    rhs = term_i + term_j - dg
    return 0.5 * (ginv @ rhs.reshape(rhs.shape[:-2] + (d * d,))).reshape(rhs.shape)


def ricci_tensor(state: TorusFieldState, gamma: np.ndarray) -> np.ndarray:
    """Classical Ricci tensor with the mixed-derivative term symmetrized.

    Rc_ij = d_k Gamma^k_ij - d_(i Gamma^k_{k j)} + Gamma^k_{kl} Gamma^l_{ij}
    - Gamma^k_{il} Gamma^l_{kj}; the discrete symmetrization keeps the update
    exactly symmetric (the two writings agree analytically).
    """
    geom = state.geom
    v = np.einsum("...kkj->...j", gamma)
    dv = grad(geom, v)  # (i, j) = d_i v_j
    dv_sym = 0.5 * (dv + np.swapaxes(dv, -1, -2))
    quad1 = np.einsum("...l,...lij->...ij", v, gamma)
    quad2 = np.einsum("...kil,...lkj->...ij", gamma, gamma, optimize=_PAIR)
    return div(geom, gamma) - dv_sym + quad1 - quad2


def laplace_beltrami(geom: TorusGeometry, w: np.ndarray, ginv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami: (1/w) d_i (w g^{ij} d_j f), w = sqrt(det g)."""
    return div(geom, w[..., None] * np.einsum("...ij,...j->...i", ginv, grad(geom, f))) / w


def hessian(geom: TorusGeometry, gamma: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Covariant Hessian grad_i grad_j f from the gradient df = grad f, symmetrized to round-off."""
    ddf = grad(geom, df)  # (i, j) = d_i d_j f
    ddf = 0.5 * (ddf + np.swapaxes(ddf, -1, -2))
    return ddf - np.einsum("...kij,...k->...ij", gamma, df)


def inverse_and_det(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of a field of symmetric 2 x 2 or 3 x 3 matrices, in closed form.

    Only the upper triangle is read: g^-1 = adj g / det g from its cofactors, so g^-1 is symmetric
    bitwise, and det g is the cofactor expansion along the first row.
    """
    if g.shape[-1] == 2:
        a, b, c = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
        det = a * c - b * b
        adj = (c, -b, -b, a)
    else:
        a, b, c, e, f, i = g[..., 0, 0], g[..., 0, 1], g[..., 0, 2], g[..., 1, 1], g[..., 1, 2], g[..., 2, 2]
        c00, c01, c02 = e * i - f * f, c * f - b * i, b * f - c * e
        c11, c12, c22 = a * i - c * c, b * c - a * f, a * e - b * b
        det = a * c00 + b * c01 + c * c02
        adj = (c00, c01, c02, c01, c11, c12, c02, c12, c22)
    return np.stack(adj, axis=-1).reshape(g.shape) / det[..., None, None], det


def degenerate_nodes(state: TorusFieldState) -> float:
    margin = state.spd_margin()
    if margin < SPD_FLOOR:
        raise DegenerateMetric(f"metric lost positivity: min eigenvalue {margin:.3e}")
    return margin


@dataclass(frozen=True)
class TorusFields:
    """Read-only geometry of one state; build it with ``torus_fields``."""

    state: TorusFieldState
    margin: float  # smallest eigenvalue of g over the grid
    ginv: np.ndarray
    w: np.ndarray  # sqrt(det g)
    gamma: np.ndarray
    rc: np.ndarray
    h: np.ndarray  # flux density H_012
    h_norm_sq: np.ndarray  # |H|^2_g = 6 h^2 / det g

    @property
    def geom(self) -> TorusGeometry:
        return self.state.geom


def torus_fields(state: TorusFieldState) -> TorusFields:
    """The one place g^-1, Gamma, Rc, h and |H|^2 are computed; raises on lost positivity."""
    margin = degenerate_nodes(state)
    ginv, det = inverse_and_det(state.g)
    gamma = christoffel(state, ginv)
    h = flux_H(state)
    return TorusFields(state, margin, ginv, np.sqrt(det), gamma, ricci_tensor(state, gamma), h, 6.0 * h * h / det)


def torus_rhs(fields: TorusFields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dt g, dt B, dt phi) of the exact-case flow with H = h eps, in the closed forms of the module docstring."""
    geom, g, phi, ginv, gamma, h = fields.geom, fields.state.g, fields.state.phi, fields.ginv, fields.gamma, fields.h
    dphi = grad(geom, phi)
    hess = hessian(geom, gamma, dphi)
    dg = -2.0 * fields.rc + fields.h_norm_sq[..., None, None] / 6.0 * g - 4.0 * hess

    db = np.zeros_like(g)
    if geom.d == 3:  # dt B_ij = eps_kij X^k, X^k = g^{kl} (d_l h - h (Gamma^m_{lm} + 2 d_l phi))
        x = np.einsum("...kl,...l->...k", ginv,
                      grad(geom, h) - h[..., None] * (np.einsum("...mlm->...l", gamma) + 2.0 * dphi))
        db[..., _EPS_I, _EPS_J] = x
        db[..., _EPS_J, _EPS_I] = -x

    grad_phi_up = np.einsum("...kl,...l->...k", ginv, dphi)
    lap_phi = laplace_beltrami(geom, fields.w, ginv, phi)
    dphi_rhs = lap_phi - 2.0 * np.einsum("...i,...i->...", grad_phi_up, dphi) + fields.h_norm_sq / 12.0
    return dg, db, dphi_rhs


def ricci_dilaton_rhs(fields: TorusFields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dedicated H-free path: Ricci flow coupled to the dilaton only."""
    geom, phi, ginv = fields.geom, fields.state.phi, fields.ginv
    dphi = grad(geom, phi)
    dg = -2.0 * fields.rc - 4.0 * hessian(geom, fields.gamma, dphi)
    lap_phi = laplace_beltrami(geom, fields.w, ginv, phi)
    grad_phi_up = np.einsum("...kl,...l->...k", ginv, dphi)
    dphi_rhs = lap_phi - 2.0 * np.einsum("...i,...i->...", grad_phi_up, dphi)
    return dg, np.zeros_like(fields.state.B), dphi_rhs


def _potential(fields: TorusFields) -> np.ndarray:
    """R - |H|^2/12 per node."""
    return np.einsum("...ij,...ij->...", fields.ginv, fields.rc) - fields.h_norm_sq / 12.0


def generalized_scalar_field(fields: TorusFields) -> np.ndarray:
    """Nodewise R - 1/12 |H|^2_g - 4 e^phi Lap_g e^-phi."""
    phi = fields.state.phi
    return _potential(fields) - 4.0 * np.exp(phi) * laplace_beltrami(fields.geom, fields.w, fields.ginv, np.exp(-phi))


# -- lambda functional ---------------------------------------------------------


def _dirichlet_operator(fields: TorusFields):
    """Returns (apply_L, weights) for L u = -4 Lap_g u + (R - |H|^2/12) u."""
    geom, w, ginv = fields.geom, fields.w, fields.ginv
    pot = _potential(fields)
    weights = w * geom.h**geom.d  # dV per node

    def apply_l(u):
        return -4.0 * laplace_beltrami(geom, w, ginv, u) + pot * u

    return apply_l, weights


LAMBDA_RESIDUAL_TOL = 1e-8  # bound on ||L u - lambda u||_dV / (1 + |lambda|)
LAMBDA_MAX_ITER = 500


def _flat_inverse(geom: TorusGeometry):
    """FFT inverse of -4 Lap + 1 on the flat torus; deriv's symbol is i (8 sin kh - sin 2kh) / 6h."""
    kh = [2.0 * np.pi * np.fft.fftfreq(geom.N)] * (geom.d - 1) + [2.0 * np.pi * np.fft.rfftfreq(geom.N)]
    inv = 1.0 / (4.0 * sum(np.ix_(*[((8.0 * np.sin(t) - np.sin(2.0 * t)) / (6.0 * geom.h)) ** 2 for t in kh])) + 1.0)
    return lambda x: np.fft.irfftn(np.fft.rfftn(x.reshape(geom.shape)) * inv, geom.shape, range(geom.d)).reshape(x.shape)


def lambda_torus(fields: TorusFields, u0: np.ndarray | None = None, return_vector: bool = False):
    """Minimum of int(4 |grad u|^2_g + (R - |H|^2/12) u^2) dV over unit-mass u.

    LOBPCG (Knyazev 2001) on (W L) u = lambda W u, W = dV, preconditioned by ``_flat_inverse``, from
    ``u0`` (constant if None) unless u0 already meets the bound: lambda, the weighted Rayleigh quotient
    of u, is returned only if ||L u - lambda u||_W <= LAMBDA_RESIDUAL_TOL (1 + |lambda|); else raises.
    """
    apply_l, wts = _dirichlet_operator(fields)

    def rayleigh(u):
        u = u / np.sqrt(np.sum(wts * u * u))
        lu = apply_l(u)
        q = float(np.sum(wts * u * lu))
        return q, u, float(np.sqrt(np.sum(wts * (lu - q * u) ** 2)))

    q, u, res = rayleigh(np.ones(wts.shape) if u0 is None else np.asarray(u0, dtype=float))
    if res > LAMBDA_RESIDUAL_TOL * (1.0 + abs(q)):
        from scipy.sparse.linalg import lobpcg
        # lobpcg's residual is W r, ||W r||_2 >= sqrt(min W) ||r||_W and lambda <= q: a tighter tol than ours
        tol = 0.5 * LAMBDA_RESIDUAL_TOL * np.sqrt(np.min(wts)) * (1.0 + max(0.0, -q))
        _, x = lobpcg(lambda v: (wts * apply_l(v.reshape(wts.shape))).reshape(v.shape), u.reshape(-1, 1),
                      B=lambda v: wts.reshape(-1, 1) * v, M=_flat_inverse(fields.geom), tol=tol,
                      maxiter=LAMBDA_MAX_ITER, largest=False)
        q, u, res = rayleigh(x[:, 0].reshape(wts.shape))
        if res > LAMBDA_RESIDUAL_TOL * (1.0 + abs(q)):
            raise EigensolverStalled(f"lambda solver stalled at weighted residual {res:.3e}, lambda {q!r}")
    if float(np.sum(wts * u)) < 0:
        u = -u
    return (q, u) if return_vector else q


def eh_density_identity_residual(state: TorusFieldState) -> float:
    """|int GR u^2 dV - (int (R - |H|^2/12) u^2 + 4 |grad u|^2_g dV)| with u = e^-phi.

    Exact to round-off because the Laplacian is discretized in divergence
    form; run on random states before trusting the lambda solver's energy.
    """
    fields = torus_fields(state)
    u = np.exp(-state.phi)
    apply_l, wts = _dirichlet_operator(fields)
    lhs = float(np.sum(wts * generalized_scalar_field(fields) * u * u))
    rhs = float(np.sum(wts * u * apply_l(u)))
    return abs(lhs - rhs) / (1.0 + abs(lhs))


# -- time stepping ---------------------------------------------------------------


@dataclass
class TorusParams:
    T: float = 1.0
    cfl: float = 0.2
    max_steps: int = 1_000_000
    compute_lambda: bool = True
    lambda_every: int = 1

    def __post_init__(self):
        if self.T <= 0 or self.cfl <= 0:
            raise ValidationError("T and cfl must be positive")


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
    """One RK4 step; every stage state goes through the constructor, which validates its own arrays."""
    def shifted(fac, rate):
        return torus_fields(TorusFieldState(state.geom, state.g + fac * rate[0], state.B + fac * rate[1],
                                            state.phi + fac * rate[2], state.k, state.t + fac))

    k2 = rhs(shifted(dt / 2, k1))
    k3 = rhs(shifted(dt / 2, k2))
    k4 = rhs(shifted(dt, k3))
    return TorusFieldState(state.geom,
                           state.g + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                           state.B + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
                           state.phi + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]),
                           state.k, state.t + dt)


def run_torus_flow(state: TorusFieldState, params: TorusParams, rhs=torus_rhs) -> TorusTrace:
    """RK4 run with diffusion-limited steps; aborts cleanly on degeneracy or a stalled lambda.

    The step is dt = cfl h^2 / max_node ||g^{-1}|| recomputed per step, cut to
    land exactly on T.  Symmetry of g and antisymmetry of B are asserted for
    every RK4 stage state by its constructor (at the scale of g and of B), and
    antisymmetry of B once more after each step at the scale of g, which a
    custom ``rhs`` with a large B can still break (``torus_rhs`` keeps B
    antisymmetric bitwise); a violation aborts with DegenerateMetric.  A run stopped by
    ``max_steps`` before T returns with ``aborted`` set.
    """
    trace = TorusTrace()
    st = state.copy()
    lam_vec = None

    def record(f: TorusFields):
        nonlocal lam_vec
        s = f.state
        gr = generalized_scalar_field(f)
        if params.compute_lambda and len(trace.t) % params.lambda_every == 0:
            lam, lam_vec = lambda_torus(f, u0=lam_vec, return_vector=True)  # may raise: no partial row
        else:
            lam = trace.lam[-1] if trace.lam else float("nan")
        trace.t.append(s.t)
        trace.minR.append(float(np.min(gr)))
        trace.meanR.append(float(np.mean(gr)))
        trace.lam.append(lam)
        trace.spd_margin.append(f.margin)
        trace.g_norm.append(float(np.max(np.abs(s.g))))
        trace.B_norm.append(float(np.max(np.abs(s.B))))
        trace.phi_norm.append(float(np.max(np.abs(s.phi))))

    try:
        fields = torus_fields(st)
        record(fields)
        steps = 0
        while st.t < params.T - 1e-12 and steps < params.max_steps:
            # max diffusion coefficient: 1/lambda_max(g^{-1}) = lambda_min(g)
            dt = min(params.cfl * st.geom.h**2 * fields.margin, params.T - st.t)
            if dt < 1e-14:
                raise StepUnderflow(f"torus step underflow at t = {st.t}")
            k1 = rhs(fields)
            del fields  # the later stages build their own records; keeping this one raises peak memory
            try:
                st = _rk4_torus(st, dt, rhs, k1)
            except ValidationError as exc:  # the constructor rejected a stage: the step itself broke symmetry
                raise DegenerateMetric(f"RK4 stage at t = {st.t!r}: {exc}") from exc
            del k1  # likewise, before the next record and its k1
            banti = float(np.max(np.abs(st.B + np.swapaxes(st.B, -1, -2))))
            if banti > 1e-12 * max(1.0, float(np.max(np.abs(st.g)))):
                raise DegenerateMetric(f"symmetry drift: B {banti:.2e}")
            fields = torus_fields(st)
            record(fields)
            steps += 1
    except (DegenerateMetric, StepUnderflow, EigensolverStalled) as exc:
        trace.aborted = str(exc)
        trace.final_state = st
        exc.trace = trace
        raise
    if st.t < params.T - 1e-12:
        trace.aborted = f"step budget max_steps = {params.max_steps} used up at t = {st.t!r} < T = {params.T!r}"
    trace.final_state = st
    return trace


# -- binary field dumps ----------------------------------------------------------

DUMP_MAGIC = b"GRFD"
DUMP_VERSION = 1


def write_field_dump(state: TorusFieldState, path) -> None:
    """Flat binary dump: header (magic 'GRFD', uint32 version, d, N, field
    count) then row-major float64 payloads g, B, phi."""
    with open(path, "wb") as fh:
        fh.write(DUMP_MAGIC)
        np.array([DUMP_VERSION, state.geom.d, state.geom.N, 3], dtype="<u4").tofile(fh)
        state.g.astype("<f8").tofile(fh)
        state.B.astype("<f8").tofile(fh)
        state.phi.astype("<f8").tofile(fh)


def read_field_dump(path) -> dict:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != DUMP_MAGIC:
            raise ValidationError(f"bad magic {magic!r}")
        version, d, n, nfields = np.fromfile(fh, dtype="<u4", count=4)
        if version != DUMP_VERSION or nfields != 3:
            raise ValidationError("unsupported dump layout")
        shape = (int(n),) * int(d)
        g = np.fromfile(fh, dtype="<f8", count=int(np.prod(shape)) * d * d).reshape(shape + (d, d))
        b = np.fromfile(fh, dtype="<f8", count=int(np.prod(shape)) * d * d).reshape(shape + (d, d))
        phi = np.fromfile(fh, dtype="<f8", count=int(np.prod(shape))).reshape(shape)
    return {"d": int(d), "N": int(n), "g": g, "B": b, "phi": phi}
