"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here exactly as stated.
"""

import time

import numpy as np
import pytest

from grflow import algebra as alg
from grflow import checks
from grflow import connection as con
from grflow import curvature as cur
from grflow import exact_torus as et
from grflow import flow_ode as fl
from grflow import metric as met

SEED = 2024


def _verdict(num, name, passed, detail):
    line = f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_triple_route_ricci():
    t0 = time.time()
    worst = 0.0
    for a, gm, sub in checks.instance_stream(SEED, 100):
        g = gm.G
        rep = cur.curvature_report(a, g, None)  # contraction + bracket routes
        cf = cur.ricci_closed_form(a, g)
        scale = 1.0 + float(np.max(np.abs(rep.ricci)))
        worst = max(
            worst,
            rep.route_residual_ricci,
            float(np.max(np.abs(rep.ricci - cf))) / scale,
        )
    elapsed = time.time() - t0
    _verdict(1, "triple-route Ricci agreement", worst <= 1e-10 and elapsed < 30,
             f"worst {worst:.2e} (tol 1e-10), runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_scalar_dual_route():
    worst = 0.0
    for a, gm, sub in checks.instance_stream(SEED, 100):
        rep = cur.curvature_report(a, gm.G, None)
        worst = max(worst, rep.route_residual_scalar)
    spot = cur.scalar(alg.so3(1.0), np.eye(3), None)
    ok = worst <= 1e-10 and abs(spot - 1.0) <= 1e-12
    _verdict(2, "scalar dual-route agreement", ok,
             f"worst {worst:.2e} (tol 1e-10), GR(so3, Id, 0) = {spot!r} (expect 1)")


def test_criterion_3_representative_independence():
    worst = 0.0
    for a, gm, sub in checks.instance_stream(SEED + 1, 100):
        g = gm.G
        D0 = con.levi_civita(a, g, None)
        fg = cur.full_ricci(a, D0)
        grc = fg - g @ fg @ g
        gr = float(np.trace(g @ fg))
        for j in range(20):
            shift = con.lc_kernel_shift(a, g, (sub + 7 * j) & 0x7FFFFFFF)
            fgj = cur.full_ricci(a, D0 + shift)
            grcj = fgj - g @ fgj @ g
            worst = max(
                worst,
                float(np.max(np.abs(grcj - grc))) / (1 + float(np.max(np.abs(grc)))),
                abs(float(np.trace(g @ fgj)) - gr) / (1 + abs(gr)),
            )
    _verdict(3, "curvature invariance under 20 LC-kernel shifts per instance",
             worst <= 1e-10, f"worst {worst:.2e} (tol 1e-10)")


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(SEED + 2)
    worst_bianchi = worst_ricci_shift = worst_scalar_shift = worst_comp = 0.0
    for a, gm, sub in checks.instance_stream(SEED + 2, 40):
        g = gm.G
        worst_bianchi = max(worst_bianchi, cur.bianchi_residual(a, g),
                            cur.bianchi_divergence_residual(a, g))
        e = rng.standard_normal(a.n)
        worst_ricci_shift = max(worst_ricci_shift, cur.ricci_divergence_shift_check(a, g, e))
        lhs, rhs = cur.scalar_divergence_shift(a, g, e)
        worst_scalar_shift = max(worst_scalar_shift, abs(lhs - rhs) / (1 + abs(lhs)))
        t = con.antisymmetrize3(rng.standard_normal((a.n,) * 3))
        u = rng.standard_normal(a.n)
        tp = con.tau_prime(a, g, t)
        kp = con.kappa_prime(a, g, u)
        worst_comp = max(
            worst_comp,
            float(np.max(np.abs(con.tau_map(tp) - t))) / (1 + float(np.max(np.abs(t)))),
            float(np.max(np.abs(a.eta_inv @ con.kappa_map(a, kp) - u))) / (1 + float(np.max(np.abs(u)))),
            float(np.max(np.abs(con.kappa_map(a, tp)))),
            float(np.max(np.abs(con.tau_map(kp)))),
        )
    worst = max(worst_bianchi, worst_ricci_shift, worst_scalar_shift, worst_comp)
    _verdict(4, "identity suite (Bianchi, divergence shifts, tau/kappa compositions)",
             worst <= 1e-10,
             f"bianchi {worst_bianchi:.2e}, ricci-shift {worst_ricci_shift:.2e}, "
             f"scalar-shift {worst_scalar_shift:.2e}, compositions {worst_comp:.2e} (tol 1e-10)")


def test_criterion_5_variation_fd_convergence():
    res = checks.run_variation_checks(seed=SEED + 3)
    by_name = {r.name: r for r in res}
    rs = by_name["fd_ratio_scalar_variation"]
    rr = by_name["fd_ratio_ricci_variation"]
    ok = rs.passed and rr.passed
    _verdict(5, "variation FD error ratios in [25, 400] on 20 seeded paths", ok,
             f"scalar ratio min {rs.worst:.1f} ({rs.note}); ricci ratio min {rr.worst:.1f} ({rr.note})")


def test_criterion_6_ode_monotonicity():
    t0 = time.time()
    a = alg.cotangent_double(alg.su2_structure())
    gm = met.metric_from_graph(a, np.diag([1.0, 2.0, 3.0]))
    # the exact solution is a shrinking SU(2) Ricci-type flow with finite extinction
    # time ~1.89; the run stops by step underflow and its trace covers the maximal
    # computed interval
    tr = fl.run_flow(a, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=1e-3, T=10.0))
    elapsed = time.time() - t0
    gr = np.array(tr["GR"])
    rc2 = np.array(tr["normRc2"])
    defect = np.array(fl.monotonicity_defect(tr))
    dts = np.diff(tr["t"], prepend=tr["t"][0])
    mono = bool(np.all(np.diff(gr) >= -1e-8 * (1 + np.abs(gr[:-1]))))
    # gradient consistency asserted on resolved steps: per-step metric motion
    # dt ||GRc||_G below 0.05 (the final blow-up boundary layer is unresolvable
    # at any fixed dt)
    resolved = (rc2[1:] > 1e-6) & (dts[1:] * np.sqrt(np.maximum(rc2[1:], 0)) <= 0.05)
    ratios = defect[1:][resolved] / (1 + rc2[1:][resolved])
    grad_ok = bool(np.max(ratios) <= 5e-3)
    ok = mono and grad_ok and elapsed < 60
    _verdict(6, "ODE monotonicity and gradient consistency on the su(2) double", ok,
             f"GR {gr[0]:.4f} -> {gr[-1]:.3e} over t <= {tr['t'][-1]:.4f}, monotone {mono}, "
             f"defect ratio max {np.max(ratios):.2e} on {int(np.sum(resolved))} resolved steps "
             f"(tol 5e-3), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_7_stationary_flows():
    a3 = alg.so3(1.0)
    tr = fl.run_flow(a3, fl.FlowState(0.0, np.eye(3), 0.0), fl.FlowParams(dt=1e-3, T=10.0))
    drift_id = float(np.max(np.abs(tr.final_state.G - np.eye(3))))
    slope = (tr["log_sigma"][-1] - tr["log_sigma"][0]) / (tr["t"][-1] - tr["t"][0])
    slope_err = abs(slope + a3.norm_c_sq() / 12.0)

    ab = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(ab, SEED)
    tr2 = fl.run_flow(ab, fl.FlowState(0.0, gm.G, 0.0), fl.FlowParams(dt=1e-3, T=10.0))
    drift_ab = float(np.max(np.abs(tr2.final_state.G - gm.G)))
    reached = tr.aborted is None and tr2.aborted is None
    ok = reached and drift_id <= 1e-10 and drift_ab <= 1e-10 and slope_err <= 1e-8
    _verdict(7, "stationary flows and log-sigma slope", ok,
             f"G=Id drift {drift_id:.2e}, abelian drift {drift_ab:.2e} (tol 1e-10), "
             f"slope error {slope_err:.2e} (tol 1e-8), both runs reach T: {reached}")


@pytest.fixture(scope="module")
def torus_benchmark_run():
    """The 16^3 flux benchmark to T = 1, run once for criteria 8 and 9, with its runtime."""
    t0 = time.time()
    geom = et.TorusGeometry(3, 16, 2 * np.pi)
    tr = et.run_torus_flow(et.flat_state(geom, k=1.0), et.TorusParams(T=1.0, cfl=0.2))
    return tr, time.time() - t0


def test_criterion_8_torus_benchmark(torus_benchmark_run):
    tr, elapsed = torus_benchmark_run
    f_exact = (1 + 3 * 1.0) ** (1.0 / 3.0)
    eye = np.broadcast_to(np.eye(3), tr.final_state.g.shape)
    g_err = float(np.max(np.abs(tr.final_state.g / f_exact - eye)))
    ts = np.array(tr["t"])
    minr_err = float(np.max(np.abs(np.array(tr["minR"]) + 1.0 / (2 * (1 + 3 * ts)))))
    ok = tr.aborted is None and g_err <= 1e-4 and minr_err <= 1e-4 and elapsed < 300
    _verdict(8, "torus homogeneous benchmark at 16^3", ok,
             f"relative g error {g_err:.2e}, min scalar error {minr_err:.2e} (tol 1e-4), "
             f"runtime {elapsed:.1f}s (< 300s), aborted: {tr.aborted}")


def test_criterion_9_torus_lambda_monotonicity(torus_benchmark_run):
    geom = et.TorusGeometry(3, 16, 2 * np.pi)
    bench, _ = torus_benchmark_run
    lam_b = np.array(bench["lambda"])
    ts_b = np.array(bench["t"])
    drift_b = float(np.max(np.maximum(0.0, -np.diff(lam_b) / np.diff(ts_b))))
    pert = et.run_torus_flow(
        et.perturbed_state(geom, SEED + 4, amplitude=0.05), et.TorusParams(T=0.5, cfl=0.2)
    )
    lam_p = np.array(pert["lambda"])
    ts_p = np.array(pert["t"])
    drift_p = float(np.max(np.maximum(0.0, -np.diff(lam_p) / np.diff(ts_p))))
    lam_flat = et.lambda_torus(et.torus_fields(et.flat_state(geom, 0.0)))
    lam_flux = lam_b[0]
    ok = (
        bench.aborted is None
        and pert.aborted is None
        and drift_b <= 1e-6
        and drift_p <= 1e-6
        and abs(lam_flat) <= 1e-6
        and abs(lam_flux + 0.5) <= 1e-6
    )
    _verdict(9, "torus lambda monotonicity and spot values", ok,
             f"benchmark drift {drift_b:.2e}, perturbed drift {drift_p:.2e} (tol 1e-6/unit time), "
             f"lambda(flat) {lam_flat:.2e}, lambda(k=1) {lam_flux!r} (expect -0.5), "
             f"aborted: {bench.aborted} / {pert.aborted}")


def test_criterion_10_discrete_structure():
    geom = et.TorusGeometry(3, 16, 2 * np.pi)
    st = et.perturbed_state(geom, SEED + 5, amplitude=0.3)
    ddb = et.exterior_derivative(geom, et.exterior_derivative(geom, st.B, 2), 3)
    ddb_res = float(np.max(np.abs(ddb))) / (1 + float(np.max(np.abs(st.B))))

    run = et.run_torus_flow(
        et.perturbed_state(geom, SEED + 6, amplitude=0.05, k=0.5),
        et.TorusParams(T=0.1, cfl=0.2, compute_lambda=False),
    )
    fs = run.final_state
    sym_res = float(np.max(np.abs(fs.g - np.swapaxes(fs.g, -1, -2)))) / max(1.0, float(np.max(np.abs(fs.g))))
    anti_res = float(np.max(np.abs(fs.B + np.swapaxes(fs.B, -1, -2)))) / max(1.0, float(np.max(np.abs(fs.B))))

    ratios = checks.spatial_convergence_ratios(SEED + 7)
    conv_ok = all(8.0 <= ratios[k] <= 32.0 for k in ("g", "B", "phi"))
    ok = run.aborted is None and ddb_res <= 1e-13 and sym_res <= 1e-12 and anti_res <= 1e-12 and conv_ok
    _verdict(10, "discrete structure (d dB = 0, symmetry preservation, 4th-order convergence)", ok,
             f"d(dB) {ddb_res:.2e}, g-symmetry {sym_res:.2e}, B-antisymmetry {anti_res:.2e}, "
             f"convergence factors g {ratios['g']:.1f} / B {ratios['B']:.1f} / phi {ratios['phi']:.1f} "
             f"(expect about 16, band [8, 32]), aborted: {run.aborted}")
