"""Randomized identity suite shared by the CLI ``check`` mode and the tests.

Every check is a name, a tolerance (or band) and a residual of one record,
declared once in a table; the suite keeps its worst value over the records:
seeded instances that cycle through the algebra presets, variation paths, or
the one record of seeded flow and torus runs.  A check whose residual, or an
input it reads, raises a NumericalError reads worst = inf with a note naming
the error, and the other checks still run.  A NaN residual fails its check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import algebra as alg
from . import connection as con
from . import curvature as cur
from . import exact_torus as et
from . import flow_ode as fl
from . import metric as met
from . import variation as var
from .errors import NumericalError


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def _failed(name, tol, exc: NumericalError) -> CheckResult:
    """The result of a check whose evaluation raised: worst inf fails every tolerance and band."""
    return CheckResult(name, float("inf"), tol, False, f"raised {type(exc).__name__}: {exc}")


def _from_run(trace, value) -> float:
    """``value(trace)``, or inf (failing every tolerance and band) if the run stopped short."""
    return float("inf") if trace.aborted else value(trace)


def _fall(trace, series) -> float:
    """The fastest decrease of a series recorded along ``trace``, 0 if it never falls."""
    return _from_run(trace, lambda tr: float(np.max(np.maximum(0.0, -(np.diff(series) / np.diff(tr.t))))))


def _peak(x) -> float:
    return float(np.max(np.abs(x)))


def _rel(x, ref) -> float:
    """max |x - ref| relative to 1 + max |ref|."""
    return _peak(np.subtract(x, ref)) / (1 + _peak(ref))


PRESETS = (
    ("abelian", lambda: alg.abelian(4, 2)),
    ("so3", lambda: alg.so3(1.0)),
    ("cotangent_double_su2", lambda: alg.cotangent_double(alg.su2_structure())),
    ("complex_double_su2", lambda: alg.complex_double_su2(1.0)),
)


def instance_stream(seed: int, count: int):
    """(algebra, strictly positive metric, per-instance seed) tuples."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        name, make = PRESETS[i % len(PRESETS)]
        a = make()
        sub = int(rng.integers(2**31))
        gm = met.random_strictly_positive_metric(a, sub)
        yield a, gm, sub


def _aggregate(table: dict, records) -> list[CheckResult]:
    """One result per check of ``table`` over ``records``; a check whose residual raised on any record fails
    with the first NumericalError, and no other check does. The reductions propagate NaN, so a NaN value
    fails its check; a check that no record gives a value fails too, at worst inf: it has shown nothing."""
    values = {name: [] for name in table}
    raised: dict[str, NumericalError] = {}
    for x in records:
        for name, (_, residual) in table.items():
            try:
                value = residual(x)
            except NumericalError as exc:
                raised.setdefault(name, exc)
            else:
                if value is not None:
                    values[name].append(value)
    results = []
    for name, (tol, _) in table.items():
        v = values[name]
        lo, hi = tol if isinstance(tol, tuple) else (None, tol)
        band = "" if lo is None else f"band [{lo},{hi}]: "  # the result's tol holds only hi
        if name in raised:
            results.append(_failed(name, hi, raised[name]))
        elif not v:
            results.append(CheckResult(name, float("inf"), hi, False, band + "no record has a value"))
        elif lo is None:
            worst = float(np.max(v))
            results.append(CheckResult(name, worst, hi, bool(worst <= hi)))
        else:
            worst = float(np.min(v))
            results.append(CheckResult(name, worst, hi, bool(lo <= worst <= hi),
                                       f"{band}n={len(v)}, max={np.max(v):.1f}"))
    return results


class _Preset:
    """A preset algebra, a condition-controlled random basis change (orthogonal x diag(0.5..2) x orthogonal)
    and the seed of an eta-rotation."""

    def __init__(self, a: alg.QuadraticLieAlgebra, rng: np.random.Generator):
        q1, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        q2, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        self.a, self.p = a, q1 @ np.diag(rng.uniform(0.5, 2.0, a.n)) @ q2
        self.k_seed = int(rng.integers(2**31))


class _Instance:
    """One seeded instance: its random draws, and the inputs its checks share, each formed once on first use.

    An input that raises is not cached, so every check that reads it fails with that error, and no other.
    """

    def __init__(self, a: alg.QuadraticLieAlgebra, g: np.ndarray, sub: int):
        from scipy.linalg import expm

        self.a, self.g, self.sub = a, g, sub
        lrng = np.random.default_rng(sub ^ 0x5EED)
        self.u = lrng.standard_normal(a.n)
        self.t = con.antisymmetrize3(lrng.standard_normal((a.n,) * 3))
        self.uvec = lrng.standard_normal(a.n)
        self.dvec = cur.divergence_from_vector(a, lrng.standard_normal(a.n))
        self.evec = lrng.standard_normal(a.n)
        self.phi = expm(0.2 * a.ad(lrng.standard_normal(a.n))) if np.any(a.c) else None

    @cached_property
    def tau_prime(self) -> np.ndarray:
        return con.tau_prime(self.a, self.g, self.t)

    @cached_property
    def kappa_prime(self) -> np.ndarray:
        return con.kappa_prime(self.a, self.g, self.uvec)

    @cached_property
    def lc(self) -> np.ndarray:
        return con.levi_civita(self.a, self.g, self.dvec)

    @cached_property
    def report(self) -> cur.CurvatureReport:
        return cur.curvature_report(self.a, self.g, None)


class _Path:
    """One seeded variation path G(s) = exp(sK) G exp(-sK) with divergence s eps, and the Levi-Civita
    connection at s = 0 with its variation, which two checks share, each formed once on first use."""

    def __init__(self, a: alg.QuadraticLieAlgebra, sub: int, sigma: float):
        self.a, self.sub, self.sigma = a, sub, sigma
        self.g = met.random_strictly_positive_metric(a, sub).G
        self.k = met.random_eta_antisymmetric(a, sub ^ 0x77)
        self.chi = var.path_tangent(self.g, self.k)
        self.eps = np.random.default_rng(sub ^ 0x99).standard_normal(a.n)

    @cached_property
    def lc(self) -> np.ndarray:
        return con.levi_civita(self.a, self.g, None)

    @cached_property
    def variation(self) -> np.ndarray:
        return var.connection_variation(self.a, self.g, self.lc, self.chi, self.eps)


class _Runs:
    """The seeded runs and torus states that several flow and torus checks read, each formed once on first use.
    An input that raises is not cached, so every check that reads it fails with that error, and no other."""

    def __init__(self, seed: int, N: int = 16):
        self.seed, self.geom = seed, et.TorusGeometry(3, N, 2 * np.pi)

    @cached_property
    def so3_flow(self) -> fl.FlowTrace:
        return fl.run_flow(alg.so3(1.0), fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-2, T=1.0))

    @cached_property
    def state(self) -> et.TorusFieldState:
        return et.perturbed_state(self.geom, self.seed + 1, amplitude=0.05)

    @cached_property
    def bench(self) -> et.TorusTrace:
        """The flux benchmark: flat g and H = eps, so g = (1 + 3t)^(1/3) Id and minR = -1 / (2 (1 + 3t))."""
        return et.run_torus_flow(et.flat_state(self.geom, k=1.0), et.TorusParams(T=1.0, cfl=0.2))

    @cached_property
    def pert(self) -> et.TorusTrace:
        return et.run_torus_flow(et.perturbed_state(self.geom, self.seed + 4, amplitude=0.05),
                                 et.TorusParams(T=0.5, cfl=0.2))

    @cached_property
    def sym(self) -> et.TorusFieldState:
        return et.perturbed_state(self.geom, self.seed + 10, amplitude=0.05, k=0.5)

    @cached_property
    def diffeo(self) -> dict:
        return diffeomorphism_convergence_ratios(self.seed + 12)


def _algebra_gap(b: alg.QuadraticLieAlgebra, a: alg.QuadraticLieAlgebra) -> float:
    return max(_rel(b.eta, a.eta), _rel(b.c, a.c))


def _rotated_norm_gap(x: _Preset) -> float:
    """|c|^2 after the eta-orthogonal basis change exp(0.3 K), K the preset's seeded eta-antisymmetric draw."""
    from scipy.linalg import expm

    rotated = alg.change_basis(x.a, expm(0.3 * met.random_eta_antisymmetric(x.a, x.k_seed)))
    return _rel(rotated.norm_c_sq(), x.a.norm_c_sq())


def _projector_defect(n: int, p_plus: np.ndarray, p_minus: np.ndarray) -> float:
    return max(_peak(p_plus @ p_plus - p_plus), _peak(p_plus @ p_minus), _peak(p_plus + p_minus - np.eye(n)))


def _tangency_defect(a: alg.QuadraticLieAlgebra, g: np.ndarray, lie: np.ndarray) -> float:
    """How far ``lie`` is from anticommuting with G and being eta-symmetric, relative to max(1, max |lie|)."""
    scale = max(1.0, _peak(lie))
    return max(_peak(g @ lie + lie @ g) / scale, _peak(a.eta @ lie - (a.eta @ lie).T) / scale)


def _tangent_norm_gap(a: alg.QuadraticLieAlgebra, g: np.ndarray, chi: np.ndarray) -> float | None:
    """|chi|^2 against twice the squared mixed block of chi in an adapted frame; None for chi = 0."""
    if not _peak(chi) > 0:
        return None
    fr = met.adapted_frame(a, g)
    chi_ad = fr.Q.T @ (a.eta @ chi) @ fr.Q
    return _rel(2.0 * float(np.sum(chi_ad[: fr.n_plus, fr.n_plus :] ** 2)), met.mixed_norm_sq(a, a.eta @ chi))


def _kernel_defect(a: alg.QuadraticLieAlgebra, g: np.ndarray, shift: np.ndarray) -> float:
    """How far ``shift`` is from an antisymmetric, tau- and kappa-free, block-diagonal Christoffel shift."""
    return max(_peak(shift + shift.transpose(0, 2, 1)), _peak(con.tau_map(shift)), _peak(con.kappa_map(a, shift)),
               _peak(con.block_project(a, g, shift) - shift))


def _kernel_shift_gap(x: _Instance) -> float:
    """GRc and GR of 20 kernel-shifted Levi-Civita connections (divergence 0) against the curvature report."""
    grc, gr0 = x.report.ricci, x.report.scalar
    D0 = con.levi_civita(x.a, x.g, None)
    worst = 0.0
    for j in range(20):
        fgrc = cur.full_ricci(x.a, D0 + con.lc_kernel_shift(x.a, x.g, (x.sub + 31 * j) & 0x7FFFFFFF))
        worst = max(worst, _rel(fgrc - x.g @ fgrc @ x.g, grc), _rel(float(np.trace(x.g @ fgrc)), gr0))
    return worst


def _conjugation_gap(x: _Instance) -> float | None:
    """GRc(phi G phi^-1) against phi GRc(G) phi^-1; None on an abelian algebra, which draws no phi."""
    if x.phi is None:
        return None
    phi_inv = np.linalg.inv(x.phi)
    return _rel(cur.ricci_closed_form(x.a, x.phi @ x.g @ phi_inv), x.phi @ cur.ricci_closed_form(x.a, x.g) @ phi_inv)


def _fd_ratio(x: _Path, exact, curve) -> float | None:
    """Factor by which the finite-difference error of ``exact`` falls, step 1e-2 -> 1e-3; None at round-off."""
    errs = var.fd_error_ladder(
        exact(x.a, x.g, None, x.chi, x.eps),
        lambda s: curve(x.a, var.metric_path(x.g, x.k, s), con.Divergence(s * x.eps)), steps=(1e-2, 1e-3)
    )
    return errs[0] / errs[1] if errs[1] > 1e-12 else None


def _variation_defect(x: _Path) -> float:
    """How far the connection variation A is from D-compatibility with chi, tau(A) = 0 and kappa(A) = eps."""
    A = x.variation
    dchi = con.cov_d(con.mixed_christoffel(x.a, x.lc), x.chi, ("u", "d"))
    a_mixed = np.einsum("bd,adg->abg", x.a.eta_inv, A)
    comm = np.einsum("ubg,gd->ubd", a_mixed, x.g) - np.einsum("bg,ugd->ubd", x.g, a_mixed)
    return max(_peak(dchi + comm), _peak(con.tau_map(A)), _peak(con.kappa_map(x.a, A) - x.eps))


def _abelian_drift(x: _Runs) -> float:
    """How far the flow moves a random metric on an abelian algebra, where every metric is stationary."""
    ab = alg.abelian(4, 2)
    g = met.random_strictly_positive_metric(ab, x.seed + 5).G
    return _from_run(fl.run_flow(ab, fl.FlowState(0.0, g, 0.0), fl.FlowParams(dt=1e-2, T=1.0)),
                     lambda tr: _peak(tr.final_G - g))


def _flux_density_gap(x: _Runs) -> float:
    """h = k + div(b) read from b, against H_012 of d of the full B derived from b, the route the oracles read."""
    st_k = et.perturbed_state(x.geom, x.seed + 14, amplitude=0.05, k=0.7)
    return _rel(st_k.k + et.exterior_derivative(x.geom, st_k.B, 2)[..., 0, 1, 2], et.flux_H(st_k))


def _regression_gap(x: _Runs) -> float:
    """``torus_rhs`` against the full-tensor formulas of ``ricci_dilaton_rhs`` (g^-1 and det g from np.linalg)."""
    st_h0 = et.perturbed_state(x.geom, x.seed + 2, amplitude=0.04, k=0.0)
    st_h0.b[:] = 0.0  # the regression hypothesis is H = 0: k = 0 and B = 0
    full = et.ricci_dilaton_rhs(st_h0)
    return max(_peak(u - v) for u, v in zip(et.torus_rhs(et.torus_fields(st_h0)), full))


# The aggregated checks, name -> (tolerance, residual(record)), in report order. A tolerance bounds the
# largest value over the records, a band (lo, hi) holds the smallest; a residual that returns None has
# no value on that record.
PRESET_CHECKS = {
    "preset_validation": (1e-10, lambda x: max(
        (rep := alg.validate_algebra(x.a)).antisymmetry_residual, rep.jacobi_residual)),
    "change_basis_roundtrip": (1e-12, lambda x: _algebra_gap(
        alg.change_basis(alg.change_basis(x.a, x.p), np.linalg.inv(x.p)), x.a)),
    "c_norm_invariance": (1e-10, _rotated_norm_gap),
}
INSTANCE_CHECKS = {
    "metric_invariants": (1e-10, lambda x: max(met.involution_residual(x.g), met.eta_symmetry_residual(x.a, x.g))
                          / max(1.0, _peak(x.g))),
    "projector_algebra": (1e-12, lambda x: _projector_defect(x.a.n, *met.projectors(x.g))),
    "lie_derivative_tangency": (1e-10, lambda x: _tangency_defect(x.a, x.g, met.lie_derivative_metric(x.a, x.g, x.u))),
    "tangent_norm_identity": (1e-12, lambda x: _tangent_norm_gap(x.a, x.g, met.random_tangent(x.a, x.g, x.sub ^ 0xA5))),
    "tau_tau_prime": (1e-12, lambda x: _rel(con.tau_map(x.tau_prime), x.t)),
    "kappa_kappa_prime": (1e-12, lambda x: _peak(x.a.eta_inv @ con.kappa_map(x.a, x.kappa_prime) - x.uvec)),
    "kappa_tau_prime": (1e-12, lambda x: _peak(con.kappa_map(x.a, x.tau_prime))),
    "tau_kappa_prime": (1e-12, lambda x: _peak(con.tau_map(x.kappa_prime))),
    "lc_postconditions": (1e-10, lambda x: max(
        _peak(con.torsion(x.a, x.lc)), _peak(con.divergence_of(x.a, x.lc).d - x.dvec.d),
        _peak(con.cov_d(con.mixed_christoffel(x.a, x.lc), x.g, ("u", "d"))))),
    "lc_fixed_point": (1e-12, lambda x: _peak(con.lc_repair(x.a, x.g, x.dvec, x.lc) - x.lc)),
    "lc_kernel_constraints": (1e-12, lambda x: _kernel_defect(x.a, x.g, con.lc_kernel_shift(x.a, x.g, x.sub ^ 0x11))),
    "riemann_symmetries": (1e-10, lambda x: x.report.symmetry_residual),
    "riemann_mixed_trace": (1e-10, lambda x: x.report.mixed_trace_residual),
    "ricci_triple_route": (1e-10, lambda x: max(x.report.route_residual_ricci,
                                                _rel(cur.ricci_closed_form(x.a, x.g), x.report.ricci))),
    "scalar_dual_route": (1e-10, lambda x: x.report.route_residual_scalar),
    "curvature_kernel_invariance": (1e-10, _kernel_shift_gap),
    "ricci_divergence_shift": (1e-10, lambda x: cur.ricci_divergence_shift_check(x.a, x.g, x.evec)),
    # relative to the first of the pair
    "scalar_divergence_shift": (1e-10, lambda x: _rel(*cur.scalar_divergence_shift(x.a, x.g, x.evec)[::-1])),
    "bianchi_identity": (1e-10, lambda x: max(cur.bianchi_residual(x.a, x.g),
                                              cur.bianchi_divergence_residual(x.a, x.g))),
    "curvature_equivariance": (1e-10, _conjugation_gap),
    "monotonicity_identity": (1e-10, lambda x: _rel(var.scalar_variation(x.a, x.g, None, -2.0 * x.report.ricci, None),
                                                    met.mixed_norm_sq(x.a, x.a.eta @ x.report.ricci))),
}
PATH_CHECKS = {
    "fd_ratio_scalar_variation": ((25, 400), lambda x: _fd_ratio(x, var.scalar_variation, cur.scalar)),
    "fd_ratio_ricci_variation": ((25, 400), lambda x: _fd_ratio(x, var.ricci_variation, cur.ricci)),
    "connection_variation_postconditions": (1e-10, _variation_defect),
    "connection_variation_blockwise": (1e-12, lambda x: _peak(
        x.variation - var.connection_variation_blockwise(x.a, x.g, x.lc, x.chi, x.eps))),
    "eh_gradient_fd": (1e-6, lambda x: var.eh_gradient_check(x.a, x.g, x.sigma, x.sub ^ 0x13)),
}
FLOW_CHECKS = {
    "flow_identity_stationary": (1e-10, lambda x: _from_run(x.so3_flow, lambda tr: _peak(tr.final_G - np.eye(3)))),
    "flow_log_sigma_slope": (1e-8, lambda x: abs(_from_run(x.so3_flow, lambda tr: (
        tr.log_sigma[-1] - tr.log_sigma[0]) / (tr.t[-1] - tr.t[0])) + alg.so3(1.0).norm_c_sq() / 12.0)),
    "flow_abelian_stationary": (1e-10, _abelian_drift),
    # a symmetric commuting perturbation of the involution
    "retraction_convergence": (1e-12, lambda x: met.involution_residual(fl.involution_retract(
        met.random_strictly_positive_metric(PRESETS[2][1](), x.seed + 7).G + 1e-4 * np.eye(6), 1e-12)[0])),
}
# The translation is compared bitwise; the permutation check takes the swap (0 1) and the cycle (0 1 2).
TORUS_CHECKS = {
    "torus_ddB_zero": (1e-12, lambda x: _peak(et.exterior_derivative(x.geom, et.exterior_derivative(
        x.geom, x.state.B, 2), 3)) / (1.0 + _peak(et.flux_H(x.state)))),
    "torus_flux_density_dB": (1e-12, _flux_density_gap),
    "torus_eh_density_identity": (1e-12, lambda x: et.eh_density_identity_residual(x.state)),
    "torus_ricci_dilaton_regression": (1e-12, _regression_gap),
    "torus_homogeneous_benchmark_g": (1e-4, lambda x: _from_run(x.bench, lambda tr: _peak(
        tr.final_state.g / (1 + 3 * 1.0) ** (1.0 / 3.0) - np.eye(3)))),
    "torus_homogeneous_benchmark_minR": (1e-4, lambda x: _from_run(x.bench, lambda tr: _peak(
        np.array(tr.minR) + 1.0 / (2 * (1 + 3 * np.array(tr.t)))))),
    "torus_lambda_monotone_benchmark": (1e-6, lambda x: _fall(x.bench, x.bench.lam)),
    "torus_lambda_flux_value": (1e-6, lambda x: abs(x.bench.lam[0] + 0.5)),
    "torus_lambda_flat_value": (1e-6, lambda x: abs(et.lambda_torus(et.torus_fields(et.flat_state(x.geom))))),
    "torus_lambda_monotone_perturbed": (1e-6, lambda x: _fall(x.pert, x.pert.lam)),
    "torus_min_scalar_monotone_perturbed": (1e-6, lambda x: _fall(x.pert, x.pert.minR)),
    "torus_spatial_convergence_g": ((8.0, 32.0), lambda x: spatial_convergence_ratios(x.seed + 6)["g"]),
    "torus_anisotropic_flux_closed_form": (1e-12, lambda x: anisotropic_flux_residual(x.geom, x.seed + 8)),
    "torus_single_mode_B_exact": (1e-12, lambda x: single_mode_b_residual(x.geom, x.seed + 9)),
    "torus_div_h_divergence_form": ((8.0, 32.0), lambda x: div_h_convergence_ratio(x.seed + 11)),
    "torus_translation_commutes": (0.0, lambda x: symmetry_residual(x.sym, shift=(3, 1, 2))),
    "torus_permutation_commutes": (1e-12, lambda x: max(symmetry_residual(x.sym, perm=(1, 0, 2)),
                                                         symmetry_residual(x.sym, perm=(1, 2, 0)))),
    "torus_reflection_commutes": (1e-12, lambda x: symmetry_residual(x.sym, signs=(-1, 1, 1))),
    **{f"torus_diffeomorphism_{key}": ((8.0, 32.0), lambda x, key=key: x.diffeo[key]) for key in ("g", "phi", "ricci")},
    "torus_b_gauge_invariant": (1e-12, lambda x: b_gauge_residual(x.geom, x.seed + 13)),
}


def run_algebraic_checks(seed: int = 0, instances: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed + 1)
    return [
        *_aggregate(PRESET_CHECKS, (_Preset(make(), rng) for _, make in PRESETS)),
        *_aggregate(INSTANCE_CHECKS, (_Instance(a, gm.G, sub) for a, gm, sub in instance_stream(seed, instances))),
        *run_variation_checks(seed),
        *run_flow_checks(seed),
    ]


def run_variation_checks(seed: int = 0) -> list[CheckResult]:
    """Finite-difference convergence of the variation formulas (20 seeded paths).

    Paths are drawn on the two double presets: abelian metrics and G = Id on
    so(3) (its only strictly positive metric) give identically trivial
    conjugation paths.
    """
    rng = np.random.default_rng(seed + 2)
    return _aggregate(PATH_CHECKS, (_Path(PRESETS[2 + i % 2][1](), int(rng.integers(2**31)),
                                          float(rng.uniform(0.5, 2.0))) for i in range(20)))


def run_flow_checks(seed: int = 0) -> list[CheckResult]:
    return _aggregate(FLOW_CHECKS, [_Runs(seed)])


def run_torus_checks(seed: int = 0, N: int = 16) -> list[CheckResult]:
    return _aggregate(TORUS_CHECKS, [_Runs(seed, N)])


def _relative_error(x: np.ndarray, y: np.ndarray) -> float:
    """max |x - y| relative to max |y|; where y vanishes, only x = 0 passes."""
    err, scale = float(np.max(np.abs(x - y))), float(np.max(np.abs(y)))
    return err / scale if scale > 0 else (0.0 if err == 0 else float("inf"))


def constant_anisotropic_metric(seed: int, d: int = 3) -> np.ndarray:
    """A symmetric positive definite d x d matrix with eigenvalues in [0.5, 2] and random eigenvectors."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    g = (q * rng.uniform(0.5, 2.0, d)) @ q.T
    return 0.5 * (g + g.T)


def anisotropic_flux_residual(geom: et.TorusGeometry, seed: int) -> float:
    """Closed-form right side on T^3 at a constant non-diagonal g, B = 0, phi = 0 and flux H = k eps, k = 1.5.

    Gamma and Rc vanish, and eps_ikl eps_jmn g^km g^ln = 2 g_ij / det g, so the exact right side is
    dt g = (k^2 / det g) g, dt B = 0 and dt phi = k^2 / (2 det g). Returns the largest error of the
    three relative to k^2 / det g.
    """
    k = 1.5
    g0 = constant_anisotropic_metric(seed, geom.d)
    dg, db, dphi = et.torus_rhs(et.torus_fields(et.TorusFieldState.from_full(geom, g0, 0.0, 0.0, k)))
    c = k * k / np.linalg.det(g0)
    return max(float(np.max(np.abs(dg - c * et.sym_pairs(np.broadcast_to(g0, geom.shape + g0.shape))))),
               float(np.max(np.abs(db))),
               float(np.max(np.abs(dphi - 0.5 * c)))) / c


def single_mode_b_residual(geom: et.TorusGeometry, seed: int) -> float:
    """Exact discrete right side for one Fourier mode of B at a constant non-diagonal g on T^3.

    With B_ij = b_ij sin(m.x), m = (1, 2, 3), b constant antisymmetric, phi = 0 and flux k = 0.5,
    ``deriv`` along axis l multiplies cos(m.x) by s_l = (8 sin(m_l h) - sin(2 m_l h)) / (6h) (sin by
    -s_l), the symbol ``_flat_inverse`` uses. So H = k eps + cos(m.x) T with T_kij = s_k b_ij + s_i b_jk
    + s_j b_ki, Gamma = 0, and the grid values are, to round-off (contracting all 27 components of H,
    not its density),

        dt B_ij = g^{kl} d_l H_kij = -sin(m.x) g^{kl} s_l T_kij,   dt b = *dt B (``form_slots``),
        dt g_ij = 1/2 H_ikl H_jmn g^km g^ln (at the pairs i <= j),   dt phi = 1/12 H_ikl H_jmn g^ij g^km g^ln.

    Returns the largest error of the three, each relative to its largest exact value.
    """
    rng = np.random.default_rng(seed)
    d, m = geom.d, np.array([1.0, 2.0, 3.0])
    g0 = constant_anisotropic_metric(seed, d)
    a = rng.standard_normal((d, d))
    b = a - a.T
    theta = sum(mi * x for mi, x in zip(m, geom.grids()))
    sig = (8.0 * np.sin(m * geom.h) - np.sin(2.0 * m * geom.h)) / (6.0 * geom.h)
    k = 0.5
    st = et.TorusFieldState.from_full(geom, g0, b * np.sin(theta)[..., None, None], 0.0, k)
    dg, db, dphi = et.torus_rhs(et.torus_fields(st))

    gi = np.linalg.inv(g0)
    t = (np.einsum("k,ij->kij", sig, b) + np.einsum("i,jk->kij", sig, b) + np.einsum("j,ki->kij", sig, b))
    h = k * alg.epsilon3() + np.cos(theta)[..., None, None, None] * t
    exact = (et.form_slots(-np.sin(theta)[..., None, None] * np.einsum("kl,l,kij->ij", gi, sig, t)),
             et.sym_pairs(0.5 * np.einsum("...ikl,...jmn,km,ln->...ij", h, h, gi, gi)),
             np.einsum("...ikl,...jmn,ij,km,ln->...", h, h, gi, gi, gi) / 12.0)
    return max(_relative_error(x, y) for x, y in zip((db, dg, dphi), exact))


def div_h_convergence_ratio(seed: int) -> float:
    """Error factor, N = 16 -> 32, between dt b at phi = 0 and the divergence form of div^k H_kij.

    For a totally antisymmetric H, div^k H_kij = g_ia g_jb w^-1 d_k (w H^{kab}) with w = sqrt(det g):
    no Christoffel symbols, so this route is independent of how ``torus_rhs`` folds them into the trace
    Gamma^m_{lm}. H = k eps + dB is built with all its components, through ``exterior_derivative``, and the
    form's ``form_slots`` are compared with dt b. Both are 4th-order discretizations of
    one field on a perturbed g, so their difference falls by about 16 when h halves; a wrong Gamma term
    leaves an O(1) difference and a factor near 1.
    """
    err = []
    for n in (16, 32):
        geom = et.TorusGeometry(3, n, 2 * np.pi)
        st = et.perturbed_state(geom, seed, amplitude=0.1, k=0.5, kmax=1)
        st.phi[:] = 0.0
        _, db, _ = et.torus_rhs(et.torus_fields(st))
        gi = np.linalg.inv(st.g)
        w = np.sqrt(np.linalg.det(st.g))
        H = st.k * alg.epsilon3() + et.exterior_derivative(geom, st.B, 2)
        h_up = np.einsum("...kab,...kc,...ad,...be->cde...", H, gi, gi, gi)  # the layout et.div reads
        div = et.div(geom, w * h_up) / w
        form = et.form_slots(np.einsum("...ia,...jb,ab...->...ij", st.g, st.g, div))
        err.append(float(np.max(np.abs(db - form))))
    return err[0] / err[1] if err[1] > 0 else float("inf")


def diffeomorphism_convergence_ratios(seed: int) -> dict:
    """Error factors, N = 16 -> 32, of dt g, dt phi and Rc at a flat state pulled back by a smooth diffeomorphism.

    psi(x) = x + a (sin x1, sin x2, sin x0), a = 0.25, is a periodic diffeomorphism of T^3 with Jacobian
    J (det J = 1 + a^3 cos x0 cos x1 cos x2 > 0). With g0 constant and not diagonal, phi0 = 0.3 sin(m.x),
    m = (1, 2, 1), B = 0 and k = 0, the state g = J^T g0 J, phi = phi0 o psi is the pullback of
    (g0, phi0) by a Courant isometry, so Rc = 0 and

        dt g = J^T (-4 dd phi0 o psi) J,   dt phi = (g0^ij d_i d_j phi0 - 2 |d phi0|^2_g0) o psi,

    closed forms with no interpolation. Unlike the lattice maps, psi makes Gamma, its derivatives and
    its products nonzero, and every term of the right side enters. Each error falls by about 16 when h
    halves; a wrong sign on a Gamma term leaves an O(1) error and a factor near 1. A factor is inf when
    the finer error is 0.
    """
    a, amp, m = 0.25, 0.3, np.array([1.0, 2.0, 1.0])
    g0 = constant_anisotropic_metric(seed)
    gi0 = np.linalg.inv(g0)
    err = {"g": [], "phi": [], "ricci": []}
    for n in (16, 32):
        geom = et.TorusGeometry(3, n, 2 * np.pi)
        x = geom.grids()
        theta = sum(mi * y for mi, y in zip(m, (x[0] + a * np.sin(x[1]), x[1] + a * np.sin(x[2]),
                                                  x[2] + a * np.sin(x[0]))))
        jac = np.broadcast_to(np.eye(3), geom.shape + (3, 3)).copy()  # J[a, b] = d_b psi_a
        jac[..., 0, 1], jac[..., 1, 2], jac[..., 2, 0] = a * np.cos(x[1]), a * np.cos(x[2]), a * np.cos(x[0])
        jac_t = np.swapaxes(jac, -1, -2)
        fields = et.torus_fields(et.TorusFieldState.from_full(geom, jac_t @ g0 @ jac, 0.0, amp * np.sin(theta), 0.0))
        dg, _, dphi = et.torus_rhs(fields)
        hess0 = -amp * np.sin(theta)[..., None, None] * np.outer(m, m)  # (dd phi0) o psi
        grad0 = amp * np.cos(theta)[..., None] * m  # (d phi0) o psi
        exact_dphi = (np.einsum("ij,...ij->...", gi0, hess0)
                      - 2.0 * np.einsum("...i,ij,...j->...", grad0, gi0, grad0))
        err["g"].append(float(np.max(np.abs(dg + 4.0 * et.sym_pairs(jac_t @ hess0 @ jac)))))
        err["phi"].append(float(np.max(np.abs(dphi - exact_dphi))))
        err["ricci"].append(float(np.max(np.abs(fields.rc))))
    return {key: e[0] / e[1] if e[1] > 0 else float("inf") for key, e in err.items()}


def b_gauge_residual(geom: et.TorusGeometry, seed: int) -> float:
    """How far ``torus_rhs`` moves under the B-field transform B -> B + d beta, beta a smooth periodic 1-form.

    d beta is closed, and the discrete d o d vanishes to round-off, so h = k + div(*B) is unchanged, and
    with it dt g, dt b and dt phi, which read B only through h; b takes *d beta. Returns the largest change
    of each field relative to its largest value, on a perturbed state.
    """
    rng = np.random.default_rng(seed)
    st = et.perturbed_state(geom, seed, amplitude=0.05, k=0.5, kmax=1)
    xs = geom.grids()
    beta = np.stack([sum(rng.uniform(-0.3, 0.3) * np.sin(xs[b] + rng.uniform(0.0, 2.0 * np.pi)) for b in range(3))
                     for _ in range(3)], axis=-1)
    moved = et.TorusFieldState.from_full(geom, st.g, st.B + et.exterior_derivative(geom, beta, 1), st.phi, st.k, st.t)
    return max(_relative_error(x, y) for x, y in zip(et.torus_rhs(et.torus_fields(moved)),
                                                      et.torus_rhs(et.torus_fields(st))))


def _pullback(f: np.ndarray, grid: int, perm, signs, shift) -> np.ndarray:
    """f (``grid`` leading grid axes, then tensor slots) pulled back along y_a = s_a x_perm[a] + shift_a.

    Node j of the result along axis a is node s_a (j - shift_a) of input axis perm[a]; tensor slot a
    takes input slot perm[a] with the sign s_a.
    """
    perm = list(perm)
    out = np.transpose(f, perm + list(range(grid, f.ndim))) if grid else f
    for a in range(grid):
        if signs[a] < 0:
            out = np.roll(np.flip(out, a), 1, a)  # node j -> -j
    if grid:
        out = np.roll(out, shift, tuple(range(grid)))
    for ax in range(grid, f.ndim):
        out = np.moveaxis(np.moveaxis(out, ax, -1)[..., perm] * np.asarray(signs, dtype=float), -1, ax)
    return out


def symmetry_residual(state: et.TorusFieldState, perm=None, signs=None, shift=None) -> float:
    """How far ``torus_rhs`` is from commuting with a lattice symmetry of the grid: largest |rhs(P s) - P rhs(s)|.

    P is an axis permutation, reflection and translation acting on the grid axes and on every tensor
    slot (a discrete isometry of the flat torus); the flux k eps is a 3-form, so k takes the determinant
    of the signed permutation, as do b = *B and dt b, pseudovectors on T^3 and pseudoscalars on T^2. g and
    dt g, held on their pairs, are pulled back through their full forms. Each field's error is relative to
    its largest value.
    """
    d = state.geom.d
    perm = tuple(range(d)) if perm is None else tuple(perm)
    signs = (1,) * d if signs is None else tuple(signs)
    shift = (0,) * d if shift is None else tuple(shift)

    det = round(np.linalg.det(np.asarray(signs, dtype=float)[:, None] * np.eye(d)[list(perm)]))

    def pull(f, grid):
        return _pullback(f, grid, perm, signs, shift)

    def pull_star(b):  # det(P) times the pullback of a vector (T^3) or a scalar (T^2), its component axis first
        return det * (np.moveaxis(pull(np.moveaxis(b, 0, -1), d), -1, 0) if d == 3 else pull(b[0], d)[None])

    def pull_pairs(s):  # a symmetric 2-tensor held on its pairs
        return et.sym_pairs(pull(et.sym_full(s), d))

    moved = et.TorusFieldState(state.geom, pull_pairs(state.gs), pull_star(state.b), pull(state.phi, d),
                               det * state.k, state.t)
    lhs = et.torus_rhs(et.torus_fields(moved))
    dg, db, dphi = et.torus_rhs(et.torus_fields(state))
    return max(_relative_error(x, y) for x, y in zip(lhs, (pull_pairs(dg), pull_star(db), pull(dphi, d))))


def spatial_convergence_ratios(seed: int) -> dict:
    """Self-convergence factors when halving h (N = 8 -> 16 against N = 32) at T = 0.05; inf for every field
    when a run stops short of T."""
    final = {}
    for n in (8, 16, 32):
        geom = et.TorusGeometry(3, n, 2 * np.pi)
        st = et.perturbed_state(geom, seed, amplitude=0.04, k=1.0, kmax=1)
        tr = et.run_torus_flow(st, et.TorusParams(T=0.05, cfl=0.2, compute_lambda=False))
        if tr.aborted:
            return dict.fromkeys(("g", "B", "phi"), float("inf"))
        final[n] = tr.final_state

    def restrict(f, factor):
        return f[tuple(slice(None, None, factor) for _ in range(3))]

    out = {}
    for namefield in ("g", "B", "phi"):
        ref = getattr(final[32], namefield)
        e8 = float(np.max(np.abs(getattr(final[8], namefield) - restrict(ref, 4))))
        e16 = float(np.max(np.abs(getattr(final[16], namefield) - restrict(ref, 2))))
        out[namefield] = e8 / e16 if e16 > 0 else float("inf")
    return out
