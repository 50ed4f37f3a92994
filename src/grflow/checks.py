"""Randomized identity suite shared by the CLI ``check`` mode and the tests.

Each check aggregates a worst-case residual over seeded instances; instances
cycle through the algebra presets with random strictly positive metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import algebra as alg
from . import connection as con
from . import curvature as cur
from . import exact_torus as et
from . import flow_ode as fl
from . import metric as met
from . import variation as var
from .connection import Connection


@dataclass
class CheckResult:
    name: str
    worst: float
    tol: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "worst": self.worst, "tol": self.tol, "passed": self.passed, "note": self.note}


def _result(name, worst, tol, note=""):
    return CheckResult(name, float(worst), tol, bool(worst <= tol), note)


def _band_result(name, value, lo, hi, note=""):
    return CheckResult(name, float(value), hi, bool(lo <= value <= hi), note or f"band [{lo},{hi}]")


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


def run_algebraic_checks(seed: int = 0, instances: int = 100, kernel_shifts: int = 20) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = np.random.default_rng(seed + 1)

    worst_preset = 0.0
    for _, make in PRESETS:
        rep = alg.validate_algebra(make())
        worst_preset = max(worst_preset, rep.antisymmetry_residual, rep.jacobi_residual)
    results.append(_result("preset_validation", worst_preset, 1e-10))

    w_basis = w_cnorm = 0.0
    for _, make in PRESETS:
        a = make()
        # condition-controlled random basis: orthogonal x diag(0.5..2) x orthogonal
        q1, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        q2, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        p = q1 @ np.diag(rng.uniform(0.5, 2.0, a.n)) @ q2
        a2 = alg.change_basis(a, p)
        back = alg.change_basis(a2, np.linalg.inv(p))
        scale = 1.0 + float(np.max(np.abs(a.c)))
        w_basis = max(
            w_basis,
            float(np.max(np.abs(back.eta - a.eta))) / (1.0 + float(np.max(np.abs(a.eta)))),
            float(np.max(np.abs(back.c - a.c))) / scale,
        )
        k = met.random_eta_antisymmetric(a, int(rng.integers(2**31)))
        orth = expm(0.3 * k)
        a3 = alg.change_basis(a, orth)
        w_cnorm = max(w_cnorm, abs(a3.norm_c_sq() - a.norm_c_sq()) / (1 + abs(a.norm_c_sq())))
    results.append(_result("change_basis_roundtrip", w_basis, 1e-12))
    results.append(_result("c_norm_invariance", w_cnorm, 1e-10))

    tols = {
        "metric_invariants": 1e-10, "projector_algebra": 1e-12, "lie_derivative_tangency": 1e-10,
        "tangent_norm_identity": 1e-12, "tau_tau_prime": 1e-12, "kappa_kappa_prime": 1e-12,
        "kappa_tau_prime": 1e-12, "tau_kappa_prime": 1e-12, "lc_postconditions": 1e-10,
        "lc_fixed_point": 1e-12, "lc_kernel_constraints": 1e-12, "riemann_symmetries": 1e-10,
        "riemann_mixed_trace": 1e-10, "ricci_triple_route": 1e-10, "scalar_dual_route": 1e-10,
        "curvature_kernel_invariance": 1e-10, "ricci_divergence_shift": 1e-10,
        "scalar_divergence_shift": 1e-10, "bianchi_identity": 1e-10, "curvature_equivariance": 1e-10,
        "monotonicity_identity": 1e-10,
    }
    worst = dict.fromkeys(tols, 0.0)

    for a, gm, sub in instance_stream(seed, instances):
        g = gm.G
        lrng = np.random.default_rng(sub ^ 0x5EED)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst["metric_invariants"] = max(
            worst["metric_invariants"],
            met.involution_residual(g) / scale,
            met.eta_symmetry_residual(a, g) / scale,
        )
        p_plus, p_minus = met.projectors(g)
        worst["projector_algebra"] = max(
            worst["projector_algebra"],
            float(np.max(np.abs(p_plus @ p_plus - p_plus))),
            float(np.max(np.abs(p_plus @ p_minus))),
            float(np.max(np.abs(p_plus + p_minus - np.eye(a.n)))),
        )
        u = lrng.standard_normal(a.n)
        lie = met.lie_derivative_metric(a, g, u).chi
        lie_scale = max(1.0, float(np.max(np.abs(lie))))
        worst["lie_derivative_tangency"] = max(
            worst["lie_derivative_tangency"],
            float(np.max(np.abs(g @ lie + lie @ g))) / lie_scale,
            float(np.max(np.abs(a.eta @ lie - (a.eta @ lie).T))) / lie_scale,
        )
        chi = met.random_tangent(a, g, sub ^ 0xA5).chi
        if np.max(np.abs(chi)) > 0:
            fr = met.adapted_frame(a, g)
            chi_ad = fr.Q.T @ (a.eta @ chi) @ fr.Q
            mixed = chi_ad[: fr.n_plus, fr.n_plus :]
            lhs = met.mixed_norm_sq(a, a.eta @ chi)
            rhs = 2.0 * float(np.sum(mixed**2))
            worst["tangent_norm_identity"] = max(worst["tangent_norm_identity"], abs(lhs - rhs) / (1 + abs(lhs)))

        t_rand = con.antisymmetrize3(lrng.standard_normal((a.n,) * 3))
        tp = con.tau_prime(a, g, t_rand)
        worst["tau_tau_prime"] = max(worst["tau_tau_prime"], float(np.max(np.abs(con.tau_map(tp) - t_rand))) / (1 + float(np.max(np.abs(t_rand)))))
        worst["kappa_tau_prime"] = max(worst["kappa_tau_prime"], float(np.max(np.abs(con.kappa_map(a, tp)))))
        uvec = lrng.standard_normal(a.n)
        kp = con.kappa_prime(a, g, uvec)
        worst["kappa_kappa_prime"] = max(
            worst["kappa_kappa_prime"], float(np.max(np.abs(a.eta_inv @ con.kappa_map(a, kp) - uvec)))
        )
        worst["tau_kappa_prime"] = max(worst["tau_kappa_prime"], float(np.max(np.abs(con.tau_map(kp)))))

        dvec = cur.divergence_from_vector(a, lrng.standard_normal(a.n))
        D = con.levi_civita(a, g, dvec)
        mchr = con.mixed_christoffel(a, D)
        dg_cov = con.cov_d(mchr, g, ("u", "d"))
        worst["lc_postconditions"] = max(
            worst["lc_postconditions"],
            float(np.max(np.abs(con.torsion(a, D)))),
            float(np.max(np.abs(con.divergence_of(a, D).d - dvec.d))),
            float(np.max(np.abs(dg_cov))),
        )
        repaired = con.lc_repair(a, g, dvec, D)
        worst["lc_fixed_point"] = max(worst["lc_fixed_point"], float(np.max(np.abs(repaired.gamma - D.gamma))))

        shift = con.lc_kernel_shift(a, g, sub ^ 0x11)
        blocked = con.block_project(a, g, shift)
        worst["lc_kernel_constraints"] = max(
            worst["lc_kernel_constraints"],
            float(np.max(np.abs(shift + shift.transpose(0, 2, 1)))),
            float(np.max(np.abs(con.tau_map(shift)))),
            float(np.max(np.abs(con.kappa_map(a, shift)))),
            float(np.max(np.abs(blocked - shift))),
        )

        D0 = con.levi_civita(a, g, None)
        grm = cur.riemann(a, D0).data
        worst["riemann_symmetries"] = max(worst["riemann_symmetries"], cur.riemann_symmetry_residual(a, grm))
        worst["riemann_mixed_trace"] = max(worst["riemann_mixed_trace"], cur.mixed_trace_residual(a, g, grm))

        rep = cur.curvature_report(a, g, None)
        worst["ricci_triple_route"] = max(worst["ricci_triple_route"], rep.route_residual_ricci)
        grc = rep.ricci
        grc_cf = cur.ricci_closed_form(a, g)
        worst["ricci_triple_route"] = max(
            worst["ricci_triple_route"], float(np.max(np.abs(grc - grc_cf))) / (1 + float(np.max(np.abs(grc))))
        )
        worst["scalar_dual_route"] = max(worst["scalar_dual_route"], rep.route_residual_scalar)

        gr0 = rep.scalar
        for j in range(kernel_shifts):
            shift_j = con.lc_kernel_shift(a, g, (sub + 31 * j) & 0x7FFFFFFF)
            D_j = Connection(D0.gamma + shift_j).bind(a)
            fgrc_j = cur.full_ricci(a, D_j)
            grc_j = fgrc_j - g @ fgrc_j @ g
            gr_j = float(np.trace(g @ fgrc_j))
            worst["curvature_kernel_invariance"] = max(
                worst["curvature_kernel_invariance"],
                float(np.max(np.abs(grc_j - grc))) / (1 + float(np.max(np.abs(grc)))),
                abs(gr_j - gr0) / (1 + abs(gr0)),
            )

        evec = lrng.standard_normal(a.n)
        worst["ricci_divergence_shift"] = max(
            worst["ricci_divergence_shift"], cur.ricci_divergence_shift_check(a, g, evec)
        )
        lhs, rhs = cur.scalar_divergence_shift(a, g, evec)
        worst["scalar_divergence_shift"] = max(worst["scalar_divergence_shift"], abs(lhs - rhs) / (1 + abs(lhs)))

        worst["bianchi_identity"] = max(
            worst["bianchi_identity"], cur.bianchi_residual(a, g), cur.bianchi_divergence_residual(a, g)
        )

        if np.any(a.c):
            phi = expm(0.2 * a.ad(lrng.standard_normal(a.n)))
            g_t = phi @ g @ np.linalg.inv(phi)
            lhs_eq = cur.ricci_closed_form(a, g_t)
            rhs_eq = phi @ cur.ricci_closed_form(a, g) @ np.linalg.inv(phi)
            worst["curvature_equivariance"] = max(
                worst["curvature_equivariance"],
                float(np.max(np.abs(lhs_eq - rhs_eq))) / (1 + float(np.max(np.abs(rhs_eq)))),
            )

        mono_lhs = var.scalar_variation(a, g, None, -2.0 * grc, None)
        mono_rhs = met.mixed_norm_sq(a, a.eta @ grc)
        worst["monotonicity_identity"] = max(worst["monotonicity_identity"], abs(mono_lhs - mono_rhs) / (1 + abs(mono_rhs)))

    for n, tol in tols.items():
        results.append(_result(n, worst[n], tol))

    results.extend(run_variation_checks(seed))
    results.extend(run_flow_checks(seed))
    return results


def run_variation_checks(seed: int = 0, paths: int = 20) -> list[CheckResult]:
    """Finite-difference convergence of the variation formulas (20 seeded paths).

    Paths are drawn on the two double presets: abelian metrics and G = Id on
    so(3) (its only strictly positive metric) give identically trivial
    conjugation paths.
    """
    results = []
    rng = np.random.default_rng(seed + 2)
    ratios_scalar, ratios_ricci, conn_worst, blockwise_worst, eh_worst = [], [], 0.0, 0.0, 0.0
    doubles = (
        lambda: alg.cotangent_double(alg.su2_structure()),
        lambda: alg.complex_double_su2(1.0),
    )
    for i in range(paths):
        a = doubles[i % 2]()
        sub = int(rng.integers(2**31))
        gm = met.random_strictly_positive_metric(a, sub)
        g = gm.G
        k = met.random_eta_antisymmetric(a, sub ^ 0x77)
        chi = var.path_tangent(g, k)
        eps = np.random.default_rng(sub ^ 0x99).standard_normal(a.n)
        exact_s = var.scalar_variation(a, g, None, chi, eps)
        errs = var.fd_error_ladder(
            exact_s, lambda s: cur.scalar(a, var.metric_path(g, k, s), con.Divergence(s * eps)), steps=(1e-2, 1e-3)
        )
        if errs[1] > 1e-12:
            ratios_scalar.append(errs[0] / errs[1])
        exact_r = var.ricci_variation(a, g, None, chi, eps)
        errs_r = var.fd_error_ladder(
            exact_r, lambda s: cur.ricci(a, var.metric_path(g, k, s), con.Divergence(s * eps)), steps=(1e-2, 1e-3)
        )
        if errs_r[1] > 1e-12:
            ratios_ricci.append(errs_r[0] / errs_r[1])

        D = con.levi_civita(a, g, None)
        A = var.connection_variation(a, g, D, chi, eps)
        m = con.mixed_christoffel(a, D)
        dchi = con.cov_d(m, chi, ("u", "d"))
        a_mixed = np.einsum("bd,adg->abg", a.eta_inv, A)
        comm = np.einsum("ubg,gd->ubd", a_mixed, g) - np.einsum("bg,ugd->ubd", g, a_mixed)
        conn_worst = max(
            conn_worst,
            float(np.max(np.abs(dchi + comm))),
            float(np.max(np.abs(con.tau_map(A)))),
            float(np.max(np.abs(con.kappa_map(a, A) - eps))),
        )
        A2 = var.connection_variation_blockwise(a, g, D, chi, eps)
        blockwise_worst = max(blockwise_worst, float(np.max(np.abs(A - A2))))
        eh_worst = max(eh_worst, var.eh_gradient_check(a, g, float(rng.uniform(0.5, 2.0)), sub ^ 0x13))

    results.append(_band_result("fd_ratio_scalar_variation", min(ratios_scalar), 25, 400, f"n={len(ratios_scalar)}, max={max(ratios_scalar):.1f}"))
    results.append(_band_result("fd_ratio_ricci_variation", min(ratios_ricci), 25, 400, f"n={len(ratios_ricci)}, max={max(ratios_ricci):.1f}"))
    results.append(_result("connection_variation_postconditions", conn_worst, 1e-10))
    results.append(_result("connection_variation_blockwise", blockwise_worst, 1e-12))
    results.append(_result("eh_gradient_fd", eh_worst, 1e-6))
    return results


def run_flow_checks(seed: int = 0) -> list[CheckResult]:
    results = []
    a3 = alg.so3(1.0)
    tr = fl.run_flow(a3, fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    drift = float(np.max(np.abs(tr.final_G - np.eye(3))))
    slope = (tr.log_sigma[-1] - tr.log_sigma[0]) / (tr.t[-1] - tr.t[0])
    results.append(_result("flow_identity_stationary", drift, 1e-10))
    results.append(_result("flow_log_sigma_slope", abs(slope + a3.norm_c_sq() / 12.0), 1e-8))

    ab = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(ab, seed + 5)
    tr2 = fl.run_flow(ab, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=1e-2, T=1.0))
    results.append(_result("flow_abelian_stationary", float(np.max(np.abs(tr2.final_G - gm.G))), 1e-10))

    gm3 = met.random_strictly_positive_metric(alg.cotangent_double(alg.su2_structure()), seed + 7)
    g_pert = gm3.G + 1e-4 * np.eye(6)  # symmetric commuting perturbation of the involution
    out = fl.involution_retract(g_pert, 1e-12)
    results.append(_result("retraction_convergence", met.involution_residual(out), 1e-12))
    return results


def run_torus_checks(seed: int = 0, N: int = 16) -> list[CheckResult]:
    results = []
    geom = et.TorusGeometry(3, N, 2 * np.pi)

    st = et.perturbed_state(geom, seed + 1, amplitude=0.05)
    h_flux = et.flux_H(st)
    ddb = et.exterior_derivative(geom, et.exterior_derivative(geom, st.B, 2), 3)
    scale = 1.0 + float(np.max(np.abs(h_flux)))
    results.append(_result("torus_ddB_zero", float(np.max(np.abs(ddb))) / scale, 1e-12))
    results.append(_result("torus_eh_density_identity", et.eh_density_identity_residual(st), 1e-12))

    st_h0 = et.perturbed_state(geom, seed + 2, amplitude=0.04, k=0.0)
    st_h0.B[:] = 0.0  # the regression hypothesis is H = 0: k = 0 and B = 0
    fields_h0 = et.torus_fields(st_h0)
    dg1, db1, dphi1 = et.torus_rhs(fields_h0)
    dg2, db2, dphi2 = et.ricci_dilaton_rhs(fields_h0)
    reg = max(float(np.max(np.abs(dg1 - dg2))), float(np.max(np.abs(db1 - db2))), float(np.max(np.abs(dphi1 - dphi2))))
    results.append(_result("torus_ricci_dilaton_regression", reg, 1e-12))

    bench = et.run_torus_flow(et.flat_state(geom, k=1.0), et.TorusParams(T=1.0, cfl=0.2))
    f_exact = (1 + 3 * 1.0) ** (1.0 / 3.0)
    gerr = float(np.max(np.abs(bench.final_state.g / f_exact - np.broadcast_to(np.eye(3), bench.final_state.g.shape))))
    results.append(_result("torus_homogeneous_benchmark_g", gerr, 1e-4))
    ts = np.array(bench.t)
    minr_err = float(np.max(np.abs(np.array(bench.minR) + 1.0 / (2 * (1 + 3 * ts)))))
    results.append(_result("torus_homogeneous_benchmark_minR", minr_err, 1e-4))
    lam = np.array(bench.lam)
    lam_drift = float(np.max(np.maximum(0.0, -(np.diff(lam) / np.diff(ts)))))
    results.append(_result("torus_lambda_monotone_benchmark", lam_drift, 1e-6))
    results.append(_result("torus_lambda_flux_value", abs(lam[0] + 0.5), 1e-6))
    results.append(_result("torus_lambda_flat_value", abs(et.lambda_torus(et.torus_fields(et.flat_state(geom)))), 1e-6))

    pert = et.run_torus_flow(et.perturbed_state(geom, seed + 4, amplitude=0.05), et.TorusParams(T=0.5, cfl=0.2))
    lam_p = np.array(pert.lam)
    ts_p = np.array(pert.t)
    drift_p = float(np.max(np.maximum(0.0, -(np.diff(lam_p) / np.diff(ts_p)))))
    results.append(_result("torus_lambda_monotone_perturbed", drift_p, 1e-6))
    minr_p = np.array(pert.minR)
    drift_m = float(np.max(np.maximum(0.0, -(np.diff(minr_p) / np.diff(ts_p)))))
    results.append(_result("torus_min_scalar_monotone_perturbed", drift_m, 1e-6))

    ratios = spatial_convergence_ratios(seed + 6)
    results.append(_band_result("torus_spatial_convergence_g", ratios["g"], 8.0, 32.0, "expect about 16"))

    results.append(_result("torus_anisotropic_flux_closed_form", anisotropic_flux_residual(geom, seed + 8), 1e-12))
    results.append(_result("torus_single_mode_B_exact", single_mode_b_residual(geom, seed + 9), 1e-12))
    results.append(_band_result("torus_div_h_divergence_form", div_h_convergence_ratio(seed + 11), 8.0, 32.0,
                                "expect about 16"))
    sym = et.perturbed_state(geom, seed + 10, amplitude=0.05, k=0.5)
    results.append(_result("torus_translation_commutes", symmetry_residual(sym, shift=(3, 1, 2)), 0.0, "bitwise"))
    perm = max(symmetry_residual(sym, perm=(1, 0, 2)), symmetry_residual(sym, perm=(1, 2, 0)))
    results.append(_result("torus_permutation_commutes", perm, 1e-12, "swap (0 1) and cycle (0 1 2)"))
    results.append(_result("torus_reflection_commutes", symmetry_residual(sym, signs=(-1, 1, 1)), 1e-12))
    return results


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
    st = et.TorusFieldState(geom, np.broadcast_to(g0, geom.shape + g0.shape).copy(), np.zeros(geom.shape + g0.shape),
                            np.zeros(geom.shape), k)
    dg, db, dphi = et.torus_rhs(et.torus_fields(st))
    c = k * k / np.linalg.det(g0)
    return max(float(np.max(np.abs(dg - c * g0))), float(np.max(np.abs(db))),
               float(np.max(np.abs(dphi - 0.5 * c)))) / c


def single_mode_b_residual(geom: et.TorusGeometry, seed: int) -> float:
    """Exact discrete right side for one Fourier mode of B at a constant non-diagonal g on T^3.

    With B_ij = b_ij sin(m.x), m = (1, 2, 3), b constant antisymmetric, phi = 0 and flux k = 0.5,
    ``deriv`` along axis l multiplies cos(m.x) by s_l = (8 sin(m_l h) - sin(2 m_l h)) / (6h) (sin by
    -s_l), the symbol ``_flat_inverse`` uses. So H = k eps + cos(m.x) T with T_kij = s_k b_ij + s_i b_jk
    + s_j b_ki, Gamma = 0, and the grid values are, to round-off (contracting all 27 components of H,
    not its density),

        dt B_ij = g^{kl} d_l H_kij = -sin(m.x) g^{kl} s_l T_kij,
        dt g_ij = 1/2 H_ikl H_jmn g^km g^ln,   dt phi = 1/12 H_ikl H_jmn g^ij g^km g^ln.

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
    st = et.TorusFieldState(geom, np.broadcast_to(g0, geom.shape + (d, d)).copy(), b * np.sin(theta)[..., None, None],
                            np.zeros(geom.shape), k)
    dg, db, dphi = et.torus_rhs(et.torus_fields(st))

    gi = np.linalg.inv(g0)
    t = (np.einsum("k,ij->kij", sig, b) + np.einsum("i,jk->kij", sig, b) + np.einsum("j,ki->kij", sig, b))
    h = k * alg.epsilon3() + np.cos(theta)[..., None, None, None] * t
    exact = (-np.sin(theta)[..., None, None] * np.einsum("kl,l,kij->ij", gi, sig, t),
             0.5 * np.einsum("...ikl,...jmn,km,ln->...ij", h, h, gi, gi),
             np.einsum("...ikl,...jmn,ij,km,ln->...", h, h, gi, gi, gi) / 12.0)
    return max(_relative_error(x, y) for x, y in zip((db, dg, dphi), exact))


def div_h_convergence_ratio(seed: int) -> float:
    """Error factor, N = 16 -> 32, between dt B at phi = 0 and the divergence form of div^k H_kij.

    For a totally antisymmetric H, div^k H_kij = g_ia g_jb w^-1 d_k (w H^{kab}) with w = sqrt(det g):
    no Christoffel symbols, so this route is independent of how ``torus_rhs`` folds them into the trace
    Gamma^m_{lm}. H = k eps + dB is built here with all its components, through ``exterior_derivative``.
    Both are 4th-order discretizations of the same field on a perturbed g, so their difference falls
    by about 16 when h halves; a wrong Gamma term leaves an O(1) difference and a factor near 1.
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
        h_up = np.einsum("...kab,...kc,...ad,...be->...cde", H, gi, gi, gi)
        div = et.div(geom, w[..., None, None, None] * h_up) / w[..., None, None]
        err.append(float(np.max(np.abs(db - np.einsum("...ia,...jb,...ab->...ij", st.g, st.g, div)))))
    return err[0] / err[1] if err[1] > 0 else float("inf")


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
    of the signed permutation. Each field's error is relative to its largest value.
    """
    d = state.geom.d
    perm = tuple(range(d)) if perm is None else tuple(perm)
    signs = (1,) * d if signs is None else tuple(signs)
    shift = (0,) * d if shift is None else tuple(shift)

    def pull(f, grid):
        return _pullback(f, grid, perm, signs, shift)

    det = round(np.linalg.det(np.asarray(signs, dtype=float)[:, None] * np.eye(d)[list(perm)]))
    moved = et.TorusFieldState(state.geom, pull(state.g, d), pull(state.B, d), pull(state.phi, d), det * state.k,
                               state.t)
    lhs = et.torus_rhs(et.torus_fields(moved))
    rhs = [pull(x, d) for x in et.torus_rhs(et.torus_fields(state))]
    return max(_relative_error(x, y) for x, y in zip(lhs, rhs))


def spatial_convergence_ratios(seed: int, T: float = 0.05) -> dict:
    """Self-convergence factors when halving h (N = 8 -> 16 against N = 32)."""
    final = {}
    for n in (8, 16, 32):
        geom = et.TorusGeometry(3, n, 2 * np.pi)
        st = et.perturbed_state(geom, seed, amplitude=0.04, k=1.0, kmax=1)
        tr = et.run_torus_flow(st, et.TorusParams(T=T, cfl=0.2, compute_lambda=False))
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
