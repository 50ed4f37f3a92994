"""Generalized Ricci flow on flat tori: fields (g, B, phi) with flux H = H0 + dB.

Explicit exact-case equations:

    dt g_ij  = -2 Rc_ij + 1/2 H_ikl H_j^kl - 4 grad_i grad_j phi
    dt B_ij  = div^k H_kij - 2 (grad^k phi) H_kij
    dt phi   = Lap_g phi - 2 |grad phi|^2 + 1/12 |H|^2

and the scalar-curvature field R - 1/12 |H|^2_g - 4 e^phi Lap_g e^-phi.

Discretization: 4th-order central differences on a uniform periodic grid.
The Laplace-Beltrami operator is kept in divergence form, which makes it
exactly self-adjoint for the discrete dV-weighted inner product (central
difference matrices are antisymmetric circulants): lambda_torus's eigenproblem
(W L) u = lambda W u is symmetric, and the Einstein-Hilbert quadrature exact.

Geometry is built once per state: state -> ``torus_fields`` -> a read-only
``TorusFields`` record (positivity margin, g^-1, sqrt(det g), Gamma, Rc, H,
H_i^{kl}, |H|^2) that the right sides, the scalar field and lambda all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, EigensolverStalled, StepUnderflow, ValidationError

SPD_FLOOR = 1e-8


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
    """Stack of partial derivatives, shape grid + (d,)."""
    return np.stack([deriv(geom, f, i) for i in range(geom.d)], axis=-1)


def exterior_derivative(geom: TorusGeometry, omega: np.ndarray, degree: int) -> np.ndarray:
    """Discrete exterior derivative of a p-form given by full component arrays."""
    d = geom.d
    if degree == 0:
        return grad(geom, omega)
    if degree == 1:
        da = np.stack([deriv(geom, omega, i) for i in range(d)], axis=-2)  # (.., i, j) = d_i A_j
        return da - np.swapaxes(da, -1, -2)
    if degree == 2:
        db = np.stack([deriv(geom, omega, i) for i in range(d)], axis=-3)  # d_i B_jk
        return db + np.moveaxis(db, (-3, -2, -1), (-2, -1, -3)) + np.moveaxis(db, (-3, -2, -1), (-1, -3, -2))
    if degree == 3:
        dh = np.stack([deriv(geom, omega, i) for i in range(d)], axis=-4)  # d_a H_bcd
        out = dh.copy()
        out -= np.swapaxes(dh, -4, -3)
        out += np.moveaxis(dh, -4, -2)
        out -= np.moveaxis(dh, -4, -1)
        return out
    raise ValidationError(f"unsupported form degree {degree}")


def volume_coefficients(d: int, k: float) -> np.ndarray:
    """Constant totally antisymmetric 3-index coefficients k * eps (zero for d = 2)."""
    h0 = np.zeros((d, d, d))
    if d == 3 and k != 0.0:
        from .algebra import epsilon3

        h0 = k * epsilon3()
    return h0


@dataclass
class TorusFieldState:
    geom: TorusGeometry
    g: np.ndarray
    B: np.ndarray
    phi: np.ndarray
    H0: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        d, shape = self.geom.d, self.geom.shape
        self.g = np.asarray(self.g, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.H0 = np.asarray(self.H0, dtype=float)
        if self.g.shape != shape + (d, d) or self.B.shape != shape + (d, d) or self.phi.shape != shape:
            raise ValidationError("field arrays do not match the grid")
        if self.H0.shape != (d, d, d):
            raise ValidationError("H0 must be a constant d x d x d array")
        if d == 2 and np.any(self.H0):
            raise ValidationError("three-forms vanish on T^2: H0 must be zero for d = 2")
        if np.max(np.abs(self.g - np.swapaxes(self.g, -1, -2))) > 1e-12 * max(1.0, float(np.max(np.abs(self.g)))):
            raise ValidationError("g must be symmetric at every node")
        if np.max(np.abs(self.B + np.swapaxes(self.B, -1, -2))) > 1e-12 * max(1.0, float(np.max(np.abs(self.B))), 1e-30):
            raise ValidationError("B must be antisymmetric at every node")
        r1 = float(np.max(np.abs(self.H0 + self.H0.transpose(1, 0, 2)), initial=0.0))
        r2 = float(np.max(np.abs(self.H0 + self.H0.transpose(0, 2, 1)), initial=0.0))
        if max(r1, r2) > 1e-14 * max(1.0, float(np.max(np.abs(self.H0), initial=0.0))):
            raise ValidationError("H0 must be totally antisymmetric")

    def spd_margin(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.g)))

    def copy(self) -> "TorusFieldState":
        return TorusFieldState(self.geom, self.g.copy(), self.B.copy(), self.phi.copy(), self.H0.copy(), self.t)


def flat_state(geom: TorusGeometry, k: float = 0.0) -> TorusFieldState:
    """g = Id, B = 0, phi = 0, constant flux of strength k (volume form)."""
    eye = np.broadcast_to(np.eye(geom.d), geom.shape + (geom.d, geom.d)).copy()
    return TorusFieldState(
        geom, eye, np.zeros(geom.shape + (geom.d, geom.d)), np.zeros(geom.shape), volume_coefficients(geom.d, k)
    )


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
    """H = H0 + dB, totally antisymmetric per node."""
    db = exterior_derivative(state.geom, state.B, 2)
    return db + state.H0


def christoffel(state: TorusFieldState, ginv: np.ndarray) -> np.ndarray:
    """Gamma^k_{ij} per node, shape grid + (d, d, d) with k first."""
    geom = state.geom
    dg = np.stack([deriv(geom, state.g, l) for l in range(geom.d)], axis=-3)  # (l, i, j) = d_l g_ij
    term_i = np.moveaxis(dg, -1, -3)  # [l, i, j] <- d_i g_{jl}
    term_j = np.swapaxes(term_i, -1, -2)  # [l, i, j] <- d_j g_{il}
    rhs = term_i + term_j - dg
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, rhs)


def ricci_tensor(state: TorusFieldState, gamma: np.ndarray) -> np.ndarray:
    """Classical Ricci tensor with the mixed-derivative term symmetrized.

    Rc_ij = d_k Gamma^k_ij - d_(i Gamma^k_{k j)} + Gamma^k_{kl} Gamma^l_{ij}
    - Gamma^k_{il} Gamma^l_{kj}; the discrete symmetrization keeps the update
    exactly symmetric (the two writings agree analytically).
    """
    geom = state.geom
    div_gamma = sum(deriv(geom, gamma[..., k, :, :], k) for k in range(geom.d))
    v = np.einsum("...kkj->...j", gamma)
    dv = np.stack([deriv(geom, v, i) for i in range(geom.d)], axis=-2)  # (i, j)
    dv_sym = 0.5 * (dv + np.swapaxes(dv, -1, -2))
    quad1 = np.einsum("...l,...lij->...ij", v, gamma)
    quad2 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return div_gamma - dv_sym + quad1 - quad2


def laplace_beltrami(geom: TorusGeometry, w: np.ndarray, ginv: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Divergence-form Laplace-Beltrami: (1/w) d_i (w g^{ij} d_j f), w = sqrt(det g)."""
    df = grad(geom, f)
    flux = w[..., None] * np.einsum("...ij,...j->...i", ginv, df)
    out = sum(deriv(geom, flux[..., i], i) for i in range(geom.d))
    return out / w


def hessian(geom: TorusGeometry, gamma: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Covariant Hessian grad_i grad_j f, symmetrized to round-off."""
    df = grad(geom, f)
    ddf = np.stack([deriv(geom, df, i) for i in range(geom.d)], axis=-2)  # (i, j)
    ddf = 0.5 * (ddf + np.swapaxes(ddf, -1, -2))
    return ddf - np.einsum("...kij,...k->...ij", gamma, df)


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
    H: np.ndarray
    h_mixed: np.ndarray  # H_i^{kl}
    h_norm_sq: np.ndarray  # |H|^2_g

    @property
    def geom(self) -> TorusGeometry:
        return self.state.geom


def torus_fields(state: TorusFieldState) -> TorusFields:
    """The one place g^-1, Gamma, Rc, H and |H|^2 are computed; raises on lost positivity."""
    margin = degenerate_nodes(state)
    ginv = np.linalg.inv(state.g)
    ginv = 0.5 * (ginv + np.swapaxes(ginv, -1, -2))
    w = np.sqrt(np.linalg.det(state.g))
    gamma = christoffel(state, ginv)
    rc = ricci_tensor(state, gamma)  # before H, so its temporaries never sit beside H (peak memory)
    H = flux_H(state)
    h_mixed = np.einsum("...ikl,...km,...ln->...imn", H, ginv, ginv)
    h_up = np.einsum("...mkl,...im->...ikl", h_mixed, ginv)
    return TorusFields(state, margin, ginv, w, gamma, rc, H, h_mixed, np.einsum("...ikl,...ikl->...", h_up, H))


def torus_rhs(fields: TorusFields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dt g, dt B, dt phi) of the exact-case flow, evaluated as printed."""
    geom, phi, ginv, gamma, H = fields.geom, fields.state.phi, fields.ginv, fields.gamma, fields.H
    dphi = grad(geom, phi)
    hess = hessian(geom, gamma, phi)
    h2 = np.einsum("...ikl,...jkl->...ij", fields.h_mixed, H)
    dg = -2.0 * fields.rc + 0.5 * h2 - 4.0 * hess

    dH = np.stack([deriv(geom, H, l) for l in range(geom.d)], axis=-4)  # (l, k, i, j)
    covH = (
        dH
        - np.einsum("...mlk,...mij->...lkij", gamma, H)
        - np.einsum("...mli,...kmj->...lkij", gamma, H)
        - np.einsum("...mlj,...kim->...lkij", gamma, H)
    )
    div_h = np.einsum("...kl,...lkij->...ij", ginv, covH)
    grad_phi_up = np.einsum("...kl,...l->...k", ginv, dphi)
    db = div_h - 2.0 * np.einsum("...k,...kij->...ij", grad_phi_up, H)

    lap_phi = laplace_beltrami(geom, fields.w, ginv, phi)
    dphi_rhs = lap_phi - 2.0 * np.einsum("...i,...i->...", grad_phi_up, dphi) + fields.h_norm_sq / 12.0
    return dg, db, dphi_rhs


def ricci_dilaton_rhs(fields: TorusFields) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dedicated H-free path: Ricci flow coupled to the dilaton only."""
    geom, phi, ginv = fields.geom, fields.state.phi, fields.ginv
    dphi = grad(geom, phi)
    dg = -2.0 * fields.rc - 4.0 * hessian(geom, fields.gamma, phi)
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
    def shifted(fac, k):
        s = state.copy()
        s.g = state.g + fac * k[0]
        s.B = state.B + fac * k[1]
        s.phi = state.phi + fac * k[2]
        s.t = state.t + fac
        return torus_fields(s)

    k2 = rhs(shifted(dt / 2, k1))
    k3 = rhs(shifted(dt / 2, k2))
    k4 = rhs(shifted(dt, k3))
    out = state.copy()
    out.g = state.g + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    out.B = state.B + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    out.phi = state.phi + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    out.t = state.t + dt
    return out


def run_torus_flow(state: TorusFieldState, params: TorusParams, rhs=torus_rhs) -> TorusTrace:
    """RK4 run with diffusion-limited steps; aborts cleanly on degeneracy or a stalled lambda.

    The step is dt = cfl h^2 / max_node ||g^{-1}|| recomputed per step, cut to
    land exactly on T.  Symmetry of g and antisymmetry of B are asserted each
    step (the right sides preserve them by construction).  A run stopped by
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
            st = _rk4_torus(st, dt, rhs, k1)
            del k1  # likewise, before the next record and its k1
            gsym = float(np.max(np.abs(st.g - np.swapaxes(st.g, -1, -2))))
            banti = float(np.max(np.abs(st.B + np.swapaxes(st.B, -1, -2))))
            scale = max(1.0, float(np.max(np.abs(st.g))))
            if gsym > 1e-12 * scale or banti > 1e-12 * scale:
                raise DegenerateMetric(f"symmetry drift: g {gsym:.2e}, B {banti:.2e}")
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
