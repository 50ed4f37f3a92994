"""The ``oracles_alg100`` workload: grflow's slow oracle routes on seeded instances.

``grf check --scope algebraic`` is the natural way to run these layers,
but four of its checks fail on some seeds, through three defects in grflow,
and a benchmark workload must not fail:

* ``lc_kernel_shift`` returns, on some abelian instances, a shift that is
  not in the kernel it should lie in.  ``lc_kernel_constraints`` then reads
  up to about 4 against 1e-12 (seeds 42 and 7002, for example), and
  ``curvature_kernel_invariance``, whose shifted connections then have
  torsion, up to about 0.9 against 1e-10 (seeds 3 and 16, for example).  A
  pass does not call ``lc_kernel_shift``, so both checks are left out;
* ``connection_variation_blockwise``: the two routes differ by 2e-12 to 7e-12
  against an absolute tolerance of 1e-12 (seeds 15 and 4002, for example);
* ``fd_ratio_scalar_variation``: the check wants the finite-difference error
  to fall 25 to 400 times over a tenfold smaller step on every path.  On a
  path whose second-order error term nearly vanishes the ratio reads 21.6
  while both errors are below 4e-6 (seed 8009, path 11), so the check fails
  although the formula holds.

A pass therefore calls the public functions of ``connection``, ``curvature``,
``variation`` and ``checks`` itself, on the instances ``grf check`` would draw,
and gates every identity of the check suite that holds, at the suite's
tolerances.  The four checks above are left out; none is weakened.
The residuals go to ``oracles.json``, which the gate reads like any other
artifact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

INSTANCES = 100
PATHS = 20  # variation paths, as in ``grf check``
FD_BAND = (25.0, 400.0)  # second-order convergence: error ratio over a 10x step

# tolerances of grflow.checks for the identities a pass evaluates
TOLS = {
    "change_basis_roundtrip": 1e-12, "c_norm_invariance": 1e-10,
    "tau_tau_prime": 1e-12, "kappa_kappa_prime": 1e-12, "kappa_tau_prime": 1e-12, "tau_kappa_prime": 1e-12,
    "lc_postconditions": 1e-10,
    "riemann_symmetries": 1e-10, "riemann_mixed_trace": 1e-10, "ricci_triple_route": 1e-10,
    "scalar_dual_route": 1e-10, "bianchi_identity": 1e-10, "monotonicity_identity": 1e-10,
    "connection_variation_postconditions": 1e-10, "eh_gradient_fd": 1e-6,
}
FD_RATIO = "fd_ratio_ricci_variation"


def _peak(x) -> float:
    return float(np.max(np.abs(x)))


def _algebra_residuals(seed: int, worst: dict) -> None:
    from scipy.linalg import expm

    from grflow import algebra as alg, checks, metric as met

    rng = np.random.default_rng(seed + 1)
    for _, make in checks.PRESETS:
        a = make()
        q1, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        q2, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
        p = q1 @ np.diag(rng.uniform(0.5, 2.0, a.n)) @ q2
        back = alg.change_basis(alg.change_basis(a, p), np.linalg.inv(p))
        worst["change_basis_roundtrip"] = max(worst["change_basis_roundtrip"],
                                              _peak(back.eta - a.eta) / (1.0 + _peak(a.eta)),
                                              _peak(back.c - a.c) / (1.0 + _peak(a.c)))
        rot = alg.change_basis(a, expm(0.3 * met.random_eta_antisymmetric(a, int(rng.integers(2**31)))))
        worst["c_norm_invariance"] = max(worst["c_norm_invariance"],
                                         abs(rot.norm_c_sq() - a.norm_c_sq()) / (1 + abs(a.norm_c_sq())))


def _instance_residuals(seed: int, worst: dict) -> None:
    from grflow import checks, connection as con, curvature as cur, metric as met, variation as var

    for a, gm, sub in checks.instance_stream(seed, INSTANCES):
        g = gm.G
        lrng = np.random.default_rng(sub ^ 0x5EED)

        t_rand = con.antisymmetrize3(lrng.standard_normal((a.n,) * 3))
        tp = con.tau_prime(a, g, t_rand)
        worst["tau_tau_prime"] = max(worst["tau_tau_prime"], _peak(con.tau_map(tp) - t_rand) / (1 + _peak(t_rand)))
        worst["kappa_tau_prime"] = max(worst["kappa_tau_prime"], _peak(con.kappa_map(a, tp)))
        uvec = lrng.standard_normal(a.n)
        kp = con.kappa_prime(a, g, uvec)
        worst["kappa_kappa_prime"] = max(worst["kappa_kappa_prime"], _peak(a.eta_inv @ con.kappa_map(a, kp) - uvec))
        worst["tau_kappa_prime"] = max(worst["tau_kappa_prime"], _peak(con.tau_map(kp)))

        dvec = cur.divergence_from_vector(a, lrng.standard_normal(a.n))
        D = con.levi_civita(a, g, dvec)
        worst["lc_postconditions"] = max(worst["lc_postconditions"], _peak(con.torsion(a, D)),
                                         _peak(con.divergence_of(a, D).d - dvec.d),
                                         _peak(con.cov_d(con.mixed_christoffel(a, D), g, ("u", "d"))))

        grm = cur.riemann(a, con.levi_civita(a, g, None)).data
        worst["riemann_symmetries"] = max(worst["riemann_symmetries"], cur.riemann_symmetry_residual(a, grm))
        worst["riemann_mixed_trace"] = max(worst["riemann_mixed_trace"], cur.mixed_trace_residual(a, g, grm))
        rep = cur.curvature_report(a, g, None)
        grc = rep.ricci
        worst["ricci_triple_route"] = max(worst["ricci_triple_route"], rep.route_residual_ricci,
                                          _peak(grc - cur.ricci_closed_form(a, g)) / (1 + _peak(grc)))
        worst["scalar_dual_route"] = max(worst["scalar_dual_route"], rep.route_residual_scalar)
        worst["bianchi_identity"] = max(worst["bianchi_identity"], cur.bianchi_residual(a, g),
                                        cur.bianchi_divergence_residual(a, g))
        mono = met.mixed_norm_sq(a, a.eta @ grc)
        worst["monotonicity_identity"] = max(
            worst["monotonicity_identity"],
            abs(var.scalar_variation(a, g, None, -2.0 * grc, None) - mono) / (1 + abs(mono)))


def _variation_residuals(seed: int, worst: dict) -> list[float]:
    from grflow import algebra as alg, connection as con, curvature as cur, metric as met, variation as var

    rng = np.random.default_rng(seed + 2)
    doubles = (lambda: alg.cotangent_double(alg.su2_structure()), lambda: alg.complex_double_su2(1.0))
    ratios = []
    for i in range(PATHS):
        a = doubles[i % 2]()
        sub = int(rng.integers(2**31))
        g = met.random_strictly_positive_metric(a, sub).G
        k = met.random_eta_antisymmetric(a, sub ^ 0x77)
        chi = var.path_tangent(g, k)
        eps = np.random.default_rng(sub ^ 0x99).standard_normal(a.n)
        errs = var.fd_error_ladder(
            var.ricci_variation(a, g, None, chi, eps),
            lambda s: cur.ricci(a, var.metric_path(g, k, s), con.Divergence(s * eps)), steps=(1e-2, 1e-3))
        if errs[1] > 1e-12:
            ratios.append(errs[0] / errs[1])

        D = con.levi_civita(a, g, None)
        A = var.connection_variation(a, g, D, chi, eps)
        a_mixed = np.einsum("bd,adg->abg", a.eta_inv, A)
        comm = np.einsum("ubg,gd->ubd", a_mixed, g) - np.einsum("bg,ugd->ubd", g, a_mixed)
        worst["connection_variation_postconditions"] = max(
            worst["connection_variation_postconditions"],
            _peak(con.cov_d(con.mixed_christoffel(a, D), chi, ("u", "d")) + comm),
            _peak(con.tau_map(A)), _peak(con.kappa_map(a, A) - eps))
        worst["eh_gradient_fd"] = max(worst["eh_gradient_fd"],
                                      var.eh_gradient_check(a, g, float(rng.uniform(0.5, 2.0)), sub ^ 0x13))
    return ratios


def run_oracles(seed: int, out: Path) -> int:
    """One pass: evaluate every gated identity and write ``oracles.json``."""
    from grflow import checks

    worst = {name: 0.0 for name in TOLS}
    _algebra_residuals(seed, worst)
    _instance_residuals(seed, worst)
    ratios = _variation_residuals(seed, worst)
    flow = [r.as_dict() for r in checks.run_flow_checks(seed)]
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracles.json").write_text(json.dumps(
        {"worst": worst, FD_RATIO: ratios, "flow_checks": flow}, indent=1, sort_keys=True))
    return 0
