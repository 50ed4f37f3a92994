"""Quadratic Lie algebras (Courant algebroids over a point) and tensor utilities.

Conventions used throughout the package:

* ``eta`` is the invariant pairing; it is the *only* operator used to raise
  and lower indices.
* ``c[a, b, g] = <[e_a, e_b], e_g>`` are the structure coefficients with all
  three indices down; total antisymmetry encodes invariance of the pairing.
* Dense ``float64`` arrays everywhere; the code targets desk scale (n <= 16)
  and attempts no sparsity.  Every contraction over five or more indices is
  a matrix product (matmul, tensordot), not an einsum loop over all index
  tuples, which at n = 16 visits up to n^6 = 1.7e7 tuples per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidLieAlgebra, NonInvertiblePairing, SingularBasis

# Relative reciprocal-condition threshold below which eta counts as singular.
ETA_SINGULAR_RTOL = 1e-12
RESIDUAL_TOL = 1e-10


def _sym_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T)))


def _transform_slots(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t'_abg = p^d_a p^e_b p^z_g t_dez: each slot of the 3-tensor ``t`` moved by ``p``, one matmul per slot."""
    t = p.T @ (t @ p)  # the last slot, then the middle one, slice by slice
    return (p.T @ t.reshape(len(p), -1)).reshape(t.shape)


@dataclass(frozen=True)
class QuadraticLieAlgebra:
    """A quadratic Lie algebra (pairing ``eta``, structure tensor ``c``).

    Construction does not validate the bracket axioms; call
    :func:`validate_algebra` for that.  ``eta`` must at least be symmetric
    and numerically invertible, since every other operation relies on it.
    """

    eta: np.ndarray
    c: np.ndarray
    eta_inv: np.ndarray = field(init=False, repr=False, compare=False)
    c_mixed: np.ndarray = field(init=False, repr=False, compare=False)  # c_{ab}^g, the last index raised
    c_up: np.ndarray = field(init=False, repr=False, compare=False)  # c with all indices raised
    gram_cc: np.ndarray = field(init=False, repr=False, compare=False)  # c^{agd} c_{bgd}
    gram_cc_4: np.ndarray = field(init=False, repr=False, compare=False)  # gram_cc / 4

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if eta.ndim != 2 or eta.shape[0] != eta.shape[1]:
            raise NonInvertiblePairing(f"eta must be square, got shape {eta.shape}")
        if not np.all(np.isfinite(eta)):
            raise NonInvertiblePairing("eta must be finite")
        n = eta.shape[0]
        if c.shape != (n, n, n):
            raise InvalidLieAlgebra(f"c must have shape {(n, n, n)}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise InvalidLieAlgebra("c must be finite")
        if _sym_residual(eta) > 1e-12 * max(1.0, float(np.max(np.abs(eta)))):
            raise NonInvertiblePairing("eta is not symmetric")
        w = np.linalg.eigvalsh(eta)
        if np.min(np.abs(w)) <= ETA_SINGULAR_RTOL * np.max(np.abs(w)):
            raise NonInvertiblePairing(
                f"eta numerically singular: |lambda|_min/|lambda|_max = "
                f"{np.min(np.abs(w)) / np.max(np.abs(w)):.3e}"
            )
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "c", c)
        eta_inv = np.linalg.inv(eta)
        object.__setattr__(self, "eta_inv", eta_inv)
        object.__setattr__(self, "c_mixed", np.einsum("abd,dg->abg", c, eta_inv))
        c_up = _transform_slots(eta_inv.T, c)
        object.__setattr__(self, "c_up", c_up)
        # the Gram contraction S, reused by the curvature closed forms, and S/4, the scalar's constant term
        object.__setattr__(self, "gram_cc", np.einsum("agd,bgd->ab", c_up, c))
        object.__setattr__(self, "gram_cc_4", self.gram_cc / 4)

    @property
    def n(self) -> int:
        return self.eta.shape[0]

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Lie bracket [u, v] on coordinate vectors (index up)."""
        return np.einsum("a,b,abg->g", u, v, self.c_mixed)

    def ad(self, u: np.ndarray) -> np.ndarray:
        """Matrix of ad_u = [u, .] acting on vectors."""
        return np.einsum("a,abg->gb", u, self.c_mixed)

    def norm_c_sq(self) -> float:
        """The invariant ||c||^2_eta = c_{abg} c^{abg} (can be negative or zero)."""
        return float(np.einsum("abg,abg->", self.c, self.c_up))


@dataclass
class Tensor:
    """Dense tensor; index placement is by convention (``riemann`` is all down)."""

    data: np.ndarray


@dataclass
class ValidationReport:
    antisymmetry_residual: float
    jacobi_residual: float
    eta_signature: tuple[int, int]
    eta_condition: float
    passed: bool


def validate_algebra(a: QuadraticLieAlgebra) -> ValidationReport:
    """Check total antisymmetry of c and the Jacobi identity.

    Residuals are relative: antisymmetry against max|c|, Jacobi against the
    squared scale of the mixed structure tensor, so acceptance at 1e-10 is
    scale-invariant.
    """
    c = a.c
    anti = max(
        float(np.max(np.abs(c + c.transpose(1, 0, 2)))),
        float(np.max(np.abs(c + c.transpose(0, 2, 1)))),
    )
    anti_res = anti / float(np.max(np.abs(c))) if np.any(c) else 0.0

    cm = a.c_mixed
    n = a.n
    if np.any(cm):  # over s, the power of two with s <= max|c_mixed| < 2 s: exact, and no product under- or overflows
        cm = cm / 2.0 ** (math.frexp(float(np.max(np.abs(cm))))[1] - 1)
    j = (cm.reshape(n * n, n) @ cm.reshape(n, n * n)).reshape((n,) * 4)  # [[e_a, e_b], e_g]
    jac = j + j.transpose(1, 2, 0, 3) + j.transpose(2, 0, 1, 3)
    jac_res = float(np.max(np.abs(jac))) / float(np.max(np.abs(cm))) ** 2 if np.any(cm) else 0.0

    w = np.linalg.eigvalsh(a.eta)
    sig = (int(np.sum(w > 0)), int(np.sum(w < 0)))
    cond = float(np.max(np.abs(w)) / np.min(np.abs(w)))
    passed = anti_res <= RESIDUAL_TOL and jac_res <= RESIDUAL_TOL
    return ValidationReport(anti_res, jac_res, sig, cond, passed)


# -- presets -----------------------------------------------------------------

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_j, _i, _k] = -1.0
    _EPS3[_i, _k, _j] = -1.0
_EPS3.setflags(write=False)


def epsilon3() -> np.ndarray:
    """Totally antisymmetric epsilon on three indices."""
    return _EPS3.copy()


def abelian(n: int, p: int) -> QuadraticLieAlgebra:
    """Zero bracket with pairing diag(+1 x p, -1 x (n-p))."""
    if not 0 <= p <= n:
        raise NonInvertiblePairing(f"signature ({p},{n - p}) invalid")
    eta = np.diag(np.concatenate([np.ones(p), -np.ones(n - p)]))
    return QuadraticLieAlgebra(eta, np.zeros((n, n, n)))


def so3(scale: float = 1.0) -> QuadraticLieAlgebra:
    """so(3) with Euclidean pairing; c = scale * epsilon."""
    return QuadraticLieAlgebra(np.eye(3), scale * epsilon3())


def su2_structure() -> np.ndarray:
    """Structure constants of su(2) in the basis [x_i, x_j] = eps_ijk x_k."""
    return epsilon3()


def cotangent_double(h_struct: np.ndarray) -> QuadraticLieAlgebra:
    """The double h + h* with the coadjoint action and duality pairing.

    ``h_struct[i,j,k]`` are structure constants of h, [x_i,x_j] = f_ijk x_k.
    The bracket on the double is [x+xi, y+up] = [x,y] + ad*_x up - ad*_y xi,
    which is a Lie algebra precisely when h is; the duality pairing
    <x+xi, y+up> = xi(y) + up(x) is invariant, of signature (dim h, dim h).
    """
    f = np.asarray(h_struct, dtype=float)
    if f.ndim != 3 or f.shape != (f.shape[0],) * 3:
        raise InvalidLieAlgebra("h structure constants must be m x m x m")
    m = f.shape[0]
    n = 2 * m
    eta = np.zeros((n, n))
    eta[:m, m:] = np.eye(m)
    eta[m:, :m] = np.eye(m)

    # Bracket table with the value index up, then lower with eta.
    br = np.zeros((n, n, n))
    br[:m, :m, :m] = f
    # ad*_{x_i} xi^j = -f[i,l,j] xi^l
    br[:m, m:, m:] = -f.transpose(0, 2, 1)
    br[m:, :m, m:] = f.transpose(2, 0, 1)  # = -br[i, m+j] transposed in (i, j)
    double = QuadraticLieAlgebra(eta, np.einsum("abd,dg->abg", br, eta))
    if not (rep := validate_algebra(double)).passed:  # relative residuals: one test at every scale of h
        raise InvalidLieAlgebra(f"h is no Lie algebra: {rep}")
    return double


def complex_double_su2(scale: float = 1.0) -> QuadraticLieAlgebra:
    """Realification of sl(2,C) with (scaled) imaginary Killing pairing.

    Basis (x_1..x_3, y_1..y_3) with [x_i,x_j] = s eps x, [x_i,y_j] = s eps y,
    [y_i,y_j] = -s eps x; both the x- and y-spans are isotropic for the
    pairing <x_i, y_j> = delta_ij, giving signature (3, 3).
    """
    s = float(scale)
    eps = epsilon3()
    n = 6
    eta = np.zeros((n, n))
    eta[:3, 3:] = np.eye(3)
    eta[3:, :3] = np.eye(3)
    br = np.zeros((n, n, n))
    br[:3, :3, :3] = s * eps
    br[:3, 3:, 3:] = s * eps
    br[3:, :3, 3:] = -s * eps.transpose(1, 0, 2)
    br[3:, 3:, :3] = -s * eps
    c = np.einsum("abd,dg->abg", br, eta)
    return QuadraticLieAlgebra(eta, c)


def preset_algebra(name: str, **params) -> QuadraticLieAlgebra:
    """Registry entry point used by the CLI and tests; a param the preset does not read raises InvalidLieAlgebra."""
    if name == "abelian":
        make, args = abelian, (int(params.pop("n", 4)), int(params.pop("p", 2)))
    elif name == "so3":
        make, args = so3, (float(params.pop("scale", 1.0)),)
    elif name == "complex_double_su2":
        make, args = complex_double_su2, (float(params.pop("scale", 1.0)),)
    elif name == "cotangent_double":
        h = params.pop("h", "su2")
        if isinstance(h, str):
            if h != "su2":
                raise InvalidLieAlgebra(f"unknown base Lie algebra preset '{h}'")
            h = su2_structure()
        try:
            make, args = cotangent_double, (np.asarray(h, dtype=float),)
        except (TypeError, ValueError) as exc:
            raise InvalidLieAlgebra(f"h structure constants are not a numeric array: {exc}") from None
    else:
        raise InvalidLieAlgebra(f"unknown algebra preset '{name}'")
    if params:
        raise InvalidLieAlgebra(f"algebra preset '{name}' takes no params {sorted(params)}")
    return make(*args)


def change_basis(a: QuadraticLieAlgebra, p: np.ndarray) -> QuadraticLieAlgebra:
    """Transform to the basis e'_a = P[:, a] (columns of P in old coordinates)."""
    p = np.asarray(p, dtype=float)
    n = a.n
    if p.shape != (n, n) or not np.all(np.isfinite(p)):
        raise SingularBasis(f"basis matrix must be a finite {n} x {n} matrix")
    sv = np.linalg.svd(p, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise SingularBasis("basis matrix numerically singular")
    eta2 = p.T @ a.eta @ p
    return QuadraticLieAlgebra(eta2, _transform_slots(p, a.c))
