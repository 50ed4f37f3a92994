import numpy as np
import pytest

from grflow import algebra as alg
from grflow import connection as con
from grflow import curvature as cur
from grflow import metric as met
from grflow import variation as var
from grflow.errors import NonPositiveHalfDensity


def test_connection_variation_zero_inputs(su2_double, graph_metric_123):
    D = con.levi_civita(su2_double, graph_metric_123.G, None)
    A = var.connection_variation(su2_double, graph_metric_123.G, D, np.zeros((6, 6)), np.zeros(6))
    assert np.max(np.abs(A)) <= 1e-15


def test_connection_variation_pure_divergence(su2_double, graph_metric_123, rng):
    D = con.levi_civita(su2_double, graph_metric_123.G, None)
    u = rng.standard_normal(6)
    eps = su2_double.eta @ u
    A = var.connection_variation(su2_double, graph_metric_123.G, D, np.zeros((6, 6)), eps)
    assert np.max(np.abs(A - con.kappa_prime(su2_double, graph_metric_123.G, u))) <= 1e-13


def test_connection_variation_postconditions(su2_double, graph_metric_123, rng):
    g = graph_metric_123.G
    D = con.levi_civita(su2_double, g, None)
    chi = met.random_tangent(su2_double, g, 21).chi
    eps = rng.standard_normal(6)
    A = var.connection_variation(su2_double, g, D, chi, eps)
    m = con.mixed_christoffel(su2_double, D)
    a_mixed = np.einsum("bd,adg->abg", su2_double.eta_inv, A)
    comm = np.einsum("ubg,gd->ubd", a_mixed, g) - np.einsum("bg,ugd->ubd", g, a_mixed)
    assert np.max(np.abs(con.cov_d(m, chi, ("u", "d")) + comm)) <= 1e-10
    assert np.max(np.abs(con.tau_map(A))) <= 1e-10
    assert np.max(np.abs(con.kappa_map(su2_double, A) - eps)) <= 1e-10
    A2 = var.connection_variation_blockwise(su2_double, g, D, chi, eps)
    assert np.max(np.abs(A - A2)) <= 1e-12 * (1 + np.max(np.abs(A)))


def test_connection_variation_euler_integration(su2_double, graph_metric_123, rng):
    # Euler steps of the connection ODE along a unit-speed metric path stay
    # Levi-Civita: torsion residual stays small after 100 steps of size 1e-4.
    g0 = graph_metric_123.G
    k = met.random_eta_antisymmetric(su2_double, 17)
    k /= np.linalg.norm(k, 2)
    eps = rng.standard_normal(6)
    h = 1e-4
    gamma = con.levi_civita(su2_double, g0, None).gamma
    for j in range(100):
        s = j * h
        g_s = var.metric_path(g0, k, s)
        chi_s = var.path_tangent(g_s, k)
        D_s = con.Connection(gamma).bind(su2_double)
        A = var.connection_variation(su2_double, g_s, D_s, chi_s, eps)
        gamma = gamma + h * A
    g_end = var.metric_path(g0, k, 100 * h)
    D_end = con.Connection(gamma)
    assert np.max(np.abs(con.torsion(su2_double, D_end))) <= 1e-6
    d_end = con.divergence_of(su2_double, D_end).d
    assert np.max(np.abs(d_end - 100 * h * eps)) <= 1e-6
    m = np.einsum("bd,adg->abg", su2_double.eta_inv, gamma)
    assert np.max(np.abs(con.cov_d(m, g_end, ("u", "d")))) <= 1e-5  # O(step) drift


def test_ricci_variation_abelian_zero(rng):
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 1)
    chi = met.random_tangent(a, gm.G, 2).chi
    assert np.max(np.abs(var.ricci_variation(a, gm.G, None, chi, None))) == 0.0
    assert var.scalar_variation(a, gm.G, None, chi, None) == 0.0


def test_ricci_variation_divergence_only(su2_double, graph_metric_123, rng):
    eps = rng.standard_normal(6)
    out = var.ricci_variation(su2_double, graph_metric_123.G, None, np.zeros((6, 6)), eps)
    ref = -0.5 * met.lie_derivative_metric(
        su2_double, graph_metric_123.G, graph_metric_123.G @ (su2_double.eta_inv @ eps)
    ).chi
    assert np.max(np.abs(out - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def test_ricci_variation_output_structure(su2_double, graph_metric_123, rng):
    # eta-symmetric; and the derivative of {G_s, GRc_s} = 0 gives the mixed
    # anticommutator identity {G, dGRc} = -{chi, GRc} (the variation itself
    # has diagonal blocks -chi GRc terms, so it is not a metric tangent).
    g = graph_metric_123.G
    chi = met.random_tangent(su2_double, g, 5).chi
    eps = rng.standard_normal(6)
    out = var.ricci_variation(su2_double, g, None, chi, eps)
    sym = su2_double.eta @ out
    scale = 1 + np.max(np.abs(out))
    assert np.max(np.abs(sym - sym.T)) <= 1e-10 * scale
    grc = cur.ricci(su2_double, g, None)
    resid = g @ out + out @ g + chi @ grc + grc @ chi
    assert np.max(np.abs(resid)) <= 1e-10 * scale


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ricci_variation_fd_convergence(su2_double, seed):
    gm = met.random_strictly_positive_metric(su2_double, seed + 40)
    k = met.random_eta_antisymmetric(su2_double, seed + 80)
    chi = var.path_tangent(gm.G, k)
    eps = np.random.default_rng(seed).standard_normal(6)
    exact = var.ricci_variation(su2_double, gm.G, None, chi, eps)
    errs = var.fd_error_ladder(
        exact,
        lambda s: cur.ricci(su2_double, var.metric_path(gm.G, k, s), con.Divergence(s * eps)),
        steps=(1e-2, 1e-3),
    )
    ratio = errs[0] / errs[1]
    assert 25 <= ratio <= 400


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_variation_fd_convergence(complex_double, seed):
    gm = met.random_strictly_positive_metric(complex_double, seed + 13)
    k = met.random_eta_antisymmetric(complex_double, seed + 29)
    chi = var.path_tangent(gm.G, k)
    eps = np.random.default_rng(seed).standard_normal(6)
    exact = var.scalar_variation(complex_double, gm.G, None, chi, eps)
    errs = var.fd_error_ladder(
        exact,
        lambda s: cur.scalar(complex_double, var.metric_path(gm.G, k, s), con.Divergence(s * eps)),
        steps=(1e-2, 1e-3),
    )
    ratio = errs[0] / errs[1]
    assert 25 <= ratio <= 400


def test_scalar_variation_pure_divergence_slope(su2_double, graph_metric_123, rng):
    # FD slope of scalar(G, s e) at s = 0 must match the formula with chi = 0
    e = rng.standard_normal(6)
    eps = su2_double.eta @ e  # covector of the path d_s = s <e, .>
    exact = var.scalar_variation(su2_double, graph_metric_123.G, None, np.zeros((6, 6)), eps)
    s = 1e-5
    dplus = cur.scalar(su2_double, graph_metric_123.G, con.Divergence(s * eps))
    dminus = cur.scalar(su2_double, graph_metric_123.G, con.Divergence(-s * eps))
    fd = (dplus - dminus) / (2 * s)
    assert fd == pytest.approx(exact, abs=1e-6 * (1 + abs(exact)))
    # over a point GR(G, s<e,.>) = GR(G,0) - s^2 <Ge,e>: slope at 0 vanishes
    assert exact == pytest.approx(0.0, abs=1e-10)


def test_monotonicity_identity(su2_double, complex_double):
    for a in (su2_double, complex_double):
        gm = met.random_strictly_positive_metric(a, 19)
        grc = cur.ricci(a, gm.G, None)
        lhs = var.scalar_variation(a, gm.G, None, -2.0 * grc, None)
        rhs = met.mixed_norm_sq(a, a.eta @ grc)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_eh_functional(su2_double):
    a = alg.so3(1.0)
    assert var.eh_functional(a, np.eye(3), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert var.eh_functional(a, np.eye(3), 2.0) == pytest.approx(4.0, abs=1e-12)
    assert var.eh_functional(alg.abelian(4, 2), np.eye(4), 1.5) == 0.0
    with pytest.raises(NonPositiveHalfDensity):
        var.eh_functional(a, np.eye(3), 0.0)


def test_eh_gradient_check(su2_double, graph_metric_123):
    assert var.eh_gradient_check(su2_double, graph_metric_123.G, 1.0, seed=3) <= 1e-6
    gm = met.random_strictly_positive_metric(su2_double, 77)
    assert var.eh_gradient_check(su2_double, gm.G, 0.7, seed=5) <= 1e-6


def test_eh_gradient_identity_metric(su2_double):
    # at G = Id the Ricci term vanishes; the check reduces to the sigma term
    assert var.eh_gradient_check(su2_double, np.eye(6), 1.0, seed=1) <= 1e-6
