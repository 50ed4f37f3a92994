import numpy as np
import pytest

from grflow import algebra as alg
from grflow import connection as con
from grflow import curvature as cur
from grflow import metric as met
from grflow.errors import ForbiddenRank


def test_torsion_of_zero_connection(su2_double):
    t = con.torsion(su2_double, np.zeros((6, 6, 6)))
    assert np.array_equal(t, -su2_double.c)


def test_torsion_abelian_zero():
    a = alg.abelian(4, 2)
    t = con.torsion(a, np.zeros((4, 4, 4)))
    assert np.max(np.abs(t)) == 0.0


def test_levi_civita_torsion_free(su2_double, graph_metric_123):
    D = con.levi_civita(su2_double, graph_metric_123.G, None)
    assert np.max(np.abs(con.torsion(su2_double, D))) <= 1e-12
    assert np.max(np.abs(D + D.transpose(0, 2, 1))) <= 1e-12


def test_levi_civita_abelian_zero_connection():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 1)
    D = con.levi_civita(a, gm.G, None)
    assert np.max(np.abs(D)) == 0.0


def test_levi_civita_compatibility_and_divergence(su2_double, rng):
    gm = met.random_strictly_positive_metric(su2_double, 8)
    dvec = cur.divergence_from_vector(su2_double, rng.standard_normal(6))
    D = con.levi_civita(su2_double, gm.G, dvec)
    assert np.max(np.abs(con.divergence_of(su2_double, D).d - dvec.d)) <= 1e-12
    m = con.mixed_christoffel(su2_double, D)
    assert np.max(np.abs(con.cov_d(m, gm.G, ("u", "d")))) <= 1e-12
    # mixed blocks of gamma vanish in an adapted frame (compatibility)
    fr = met.adapted_frame(su2_double, gm.G)
    g2 = np.einsum("da,eb,zg,dez->abg", fr.Q, fr.Q, fr.Q, D)
    np_ = fr.n_plus
    assert np.max(np.abs(g2[:, :np_, np_:])) <= 1e-12
    assert np.max(np.abs(g2[:, np_:, :np_])) <= 1e-12


def test_levi_civita_bracket_blocks(su2_double, graph_metric_123):
    # For LC connections: D_{u+} v- = [u+, v-]_- and D_{v-} u+ = [v-, u+]_+,
    # i.e. gamma(ahat, b, c) = -c(ahat, b, c)-type relations in an adapted frame.
    g = graph_metric_123.G
    D = con.levi_civita(su2_double, g, None)
    fr = met.adapted_frame(su2_double, g)
    a2 = alg.change_basis(su2_double, fr.Q)
    g2 = np.einsum("da,eb,zg,dez->abg", fr.Q, fr.Q, fr.Q, D)
    np_ = fr.n_plus
    # gamma_{ahat b c} = -c_{ahat b c} and gamma_{a bhat chat} = -c_{a bhat chat}
    assert np.max(np.abs(g2[np_:, :np_, :np_] + a2.c[np_:, :np_, :np_])) <= 1e-10
    assert np.max(np.abs(g2[:np_, np_:, np_:] + a2.c[:np_, np_:, np_:])) <= 1e-10


def test_divergence_of_tau_prime_c_is_zero(su2_double, graph_metric_123):
    tp = con.tau_prime(su2_double, graph_metric_123.G, su2_double.c)
    d = con.divergence_of(su2_double, tp)
    assert np.max(np.abs(d.d)) <= 1e-13


def test_divergence_of_construction(su2_double, graph_metric_123, rng):
    u = rng.standard_normal(6)
    gamma = con.tau_prime(su2_double, graph_metric_123.G, su2_double.c) + con.kappa_prime(
        su2_double, graph_metric_123.G, u
    )
    d = con.divergence_of(su2_double, gamma)
    assert np.max(np.abs(su2_double.eta_inv @ d.d - u)) <= 1e-12


def test_tau_prime_zero(su2_double, graph_metric_123):
    assert np.max(np.abs(con.tau_prime(su2_double, graph_metric_123.G, np.zeros((6, 6, 6))))) == 0.0


def test_tau_prime_right_inverse(su2_double, graph_metric_123, rng):
    t = con.antisymmetrize3(rng.standard_normal((6, 6, 6)))
    tp = con.tau_prime(su2_double, graph_metric_123.G, t)
    assert np.max(np.abs(con.tau_map(tp) - t)) <= 1e-12 * (1 + np.max(np.abs(t)))
    assert np.max(np.abs(con.kappa_map(su2_double, tp))) <= 1e-12


def _tau_prime_raised(a, g, t):
    """tau' in its raised form: t raised by eta^-1 in all three slots, the compact formula with upper
    indices, the result lowered by eta (oracle for the all-down form)."""
    t_up = np.einsum("ad,be,gz,dez->abg", a.eta_inv, a.eta_inv, a.eta_inv, t)
    x = np.einsum("ad,deb,ge->abg", g, t_up, g)
    term3 = np.einsum("ade,bd,ge->abg", t_up, g, g)
    out_up = -(t_up + 0.5 * (x - x.transpose(0, 2, 1)) + term3) / 3.0
    return np.einsum("ad,be,gz,dez->abg", a.eta, a.eta, a.eta, out_up)


def test_tau_prime_matches_raised_form(preset_metrics):
    # general t, with no symmetry in any pair of slots, on strictly positive and mixed G
    rng = np.random.default_rng(5)
    for label, a, g in preset_metrics:
        for _ in range(3):
            t = rng.standard_normal((a.n,) * 3)
            ref = _tau_prime_raised(a, g, t)
            assert np.max(np.abs(con.tau_prime(a, g, t) - ref)) <= 1e-14 * np.max(np.abs(ref)), label


def _close(x, ref, tol=1e-13):
    return np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))


def _cov_d_einsum(M, t, variance):
    """``cov_d`` as one einsum per slot over every index tuple (oracle for its batched-matmul form)."""
    out = np.zeros((M.shape[0],) + t.shape)
    idx = "bcdefghijk"[: t.ndim]
    for slot, var in enumerate(variance):
        rest = idx[:slot] + "z" + idx[slot + 1:]
        if var == "u":
            out += np.einsum(f"a{idx[slot]}z,{rest}->a{idx}", M, t)
        else:
            out -= np.einsum(f"az{idx[slot]},{rest}->a{idx}", M, t)
    return out


def test_mixed_christoffel_and_cov_d_match_einsum(preset_metrics, cap_metric):
    # general Christoffels and tensors, with no symmetry in any pair of slots
    rng = np.random.default_rng(9)
    for label, a, _ in preset_metrics + [cap_metric]:
        gamma = rng.standard_normal((a.n,) * 3)
        m = con.mixed_christoffel(a, gamma)
        assert _close(m, np.einsum("bd,adg->abg", a.eta_inv, gamma)), label
        for variance in (("d",), ("u", "d"), ("d", "u", "u"), ("u", "d", "d")):
            t = rng.standard_normal((a.n,) * len(variance))
            assert _close(con.cov_d(m, t, variance), _cov_d_einsum(m, t, variance)), (label, variance)


def _kappa_prime_einsum(a, g, u):
    """``kappa_prime`` with its outer products as einsums (oracle for the broadcast form)."""
    out = np.zeros((a.n,) * 3)
    for p, k in zip(met.projectors(g), met.eigen_ranks(g)):
        if k:
            eta_p = a.eta @ p
            out += (np.einsum("ab,g->abg", eta_p, eta_p @ u) - np.einsum("ag,b->abg", eta_p, eta_p @ u)) / (k - 1)
    return out


def test_kappa_prime_and_block_project_match_einsum(preset_metrics, cap_metric):
    rng = np.random.default_rng(10)
    for label, a, g in preset_metrics + [cap_metric]:
        u = rng.standard_normal(a.n)
        assert _close(con.kappa_prime(a, g, u), _kappa_prime_einsum(a, g, u)), label
        A = rng.standard_normal((a.n,) * 3)
        ref = sum(np.einsum("ade,db,eg->abg", A, p, p) for p in met.projectors(g))
        assert _close(con.block_project(a, g, A), ref), label


def test_tau_prime_mixed_block_vanishes(su2_double, graph_metric_123, rng):
    t = con.antisymmetrize3(rng.standard_normal((6, 6, 6)))
    tp = con.tau_prime(su2_double, graph_metric_123.G, t)
    fr = met.adapted_frame(su2_double, graph_metric_123.G)
    tp2 = np.einsum("da,eb,zg,dez->abg", fr.Q, fr.Q, fr.Q, tp)
    np_ = fr.n_plus
    assert np.max(np.abs(tp2[:, :np_, np_:])) <= 1e-12
    assert np.max(np.abs(tp2[:, np_:, :np_])) <= 1e-12


def test_kappa_prime_identities(complex_double, rng):
    gm = met.random_strictly_positive_metric(complex_double, 4)
    u = rng.standard_normal(6)
    kp = con.kappa_prime(complex_double, gm.G, u)
    assert np.max(np.abs(complex_double.eta_inv @ con.kappa_map(complex_double, kp) - u)) <= 1e-12
    assert np.max(np.abs(con.tau_map(kp))) <= 1e-12
    assert np.max(np.abs(con.kappa_prime(complex_double, gm.G, np.zeros(6)))) == 0.0


def test_kappa_prime_forbidden_rank():
    a = alg.abelian(4, 3)
    # V+ of dimension 1: bypass the metric constructor on purpose
    G = np.diag([1.0, -1.0, -1.0, -1.0])
    with pytest.raises(ForbiddenRank):
        con.kappa_prime(a, G, np.ones(4))


def _kappa_prime_unified(a, g, u):
    """Single-formula variant of kappa' mixing the n+ and n- prefactors, kept as an oracle for the blockwise map."""
    n_plus, n_minus = met.eigen_ranks(g)
    assert n_plus > 1 and n_minus > 1
    u_dn = a.eta @ u
    g_dn = a.eta @ g  # G with both indices down
    gu_dn = g_dn @ u
    c1 = (2 - (n_plus + n_minus)) / (2 * (n_plus - 1) * (n_minus - 1))
    c2 = (n_plus - n_minus) / (2 * (n_plus - 1) * (n_minus - 1))

    def wedge(m, v):
        x = np.einsum("ab,g->abg", m, v)
        return 0.5 * (x - x.transpose(0, 2, 1))

    return 2 * (c1 * (wedge(a.eta, u_dn) + wedge(g_dn, gu_dn)) + c2 * (wedge(g_dn, u_dn) + wedge(a.eta, gu_dn)))


def test_kappa_prime_unified_formula_relation(su2_double, complex_double, rng):
    # The single-formula variant printed with mixed n+/n- prefactors equals
    # -2 times the blockwise map (which is the one satisfying kappa o kappa' = Id).
    for a in (su2_double, complex_double):
        gm = met.random_strictly_positive_metric(a, 11)
        u = rng.standard_normal(a.n)
        kp = con.kappa_prime(a, gm.G, u)
        kpu = _kappa_prime_unified(a, gm.G, u)
        assert np.max(np.abs(kp + 0.5 * kpu)) <= 1e-12 * (1 + np.max(np.abs(kp)))


def test_lc_fixed_point(su2_double, graph_metric_123, rng):
    dvec = cur.divergence_from_vector(su2_double, rng.standard_normal(6))
    D = con.levi_civita(su2_double, graph_metric_123.G, dvec)
    D2 = con.lc_repair(su2_double, graph_metric_123.G, dvec, D)
    assert np.max(np.abs(D2 - D)) <= 1e-12


def test_lc_kernel_shift_trivial_low_rank():
    a = alg.abelian(2, 2)
    shift = con.lc_kernel_shift(a, np.eye(2), 0)
    assert np.max(np.abs(shift)) == 0.0


def test_lc_kernel_shift_trivial_kernel_is_not_rescaled_round_off():
    # the kernel is trivial here and the projected shift is round-off of ~1e-13:
    # normalized to peak 1 it violated tau(shift) = 0 at order one
    a = alg.abelian(4, 2)
    g = met.random_strictly_positive_metric(a, 432652533).G
    shift = con.lc_kernel_shift(a, g, 432652516)
    assert np.max(np.abs(shift)) == 0.0
    assert np.max(np.abs(con.tau_map(shift))) <= 1e-12


def test_lc_kernel_shift_constraints(su2_double, graph_metric_123):
    A = con.lc_kernel_shift(su2_double, graph_metric_123.G, 7)
    assert np.max(np.abs(A)) > 0
    assert np.max(np.abs(A + A.transpose(0, 2, 1))) <= 1e-12
    assert np.max(np.abs(con.tau_map(A))) <= 1e-12
    assert np.max(np.abs(con.kappa_map(su2_double, A))) <= 1e-12
    assert np.max(np.abs(con.block_project(su2_double, graph_metric_123.G, A) - A)) <= 1e-12
    A2 = con.lc_kernel_shift(su2_double, graph_metric_123.G, 7)
    assert np.array_equal(A, A2)


def test_lc_difference_lies_in_constraint_set(su2_double, graph_metric_123):
    g = graph_metric_123.G
    D = con.levi_civita(su2_double, g, None)
    shift = con.lc_kernel_shift(su2_double, g, 3)
    D2 = D + shift
    # both are LC with the same divergence; their difference satisfies all five constraints
    diff = D2 - D
    assert np.max(np.abs(con.torsion(su2_double, D2))) <= 1e-10
    assert np.max(np.abs(con.divergence_of(su2_double, D2).d)) <= 1e-10
    assert np.max(np.abs(diff + diff.transpose(0, 2, 1))) <= 1e-10


def test_curvature_invariance_under_kernel_shift(su2_double, graph_metric_123):
    g = graph_metric_123.G
    D = con.levi_civita(su2_double, g, None)
    grc = cur.full_ricci(su2_double, D)
    grc = grc - g @ grc @ g
    for seed in range(5):
        A = con.lc_kernel_shift(su2_double, g, seed)
        f2 = cur.full_ricci(su2_double, D + A)
        grc2 = f2 - g @ f2 @ g
        assert np.max(np.abs(grc2 - grc)) <= 1e-10 * (1 + np.max(np.abs(grc)))


def test_cov_d_second_derivative_consistency(su2_double, graph_metric_123, rng):
    # cov_d of a first derivative, its own slot down, must match the explicit two-term expansion
    D = con.levi_civita(su2_double, graph_metric_123.G, None)
    m = con.mixed_christoffel(su2_double, D)
    u = rng.standard_normal(6)
    first = con.cov_d(m, u, ("u",))
    second = con.cov_d(m, first, ("d", "u"))
    # D_a D_b u^c = M(a)^c_e (Du)_b^e - M(a)^e_b (Du)_e^c
    expect = np.einsum("ace,be->abc", m, first) - np.einsum("aeb,ec->abc", m, first)
    assert np.max(np.abs(second - expect)) <= 1e-13


def test_mixed_christoffel_reads_the_algebra_it_is_given(su2_double, graph_metric_123):
    # mixed Christoffels are formed from the pairing passed in, never from one seen before: here eta_2 = 4 eta
    gamma = con.levi_civita(su2_double, graph_metric_123.G, None)
    con.mixed_christoffel(su2_double, gamma)
    a2 = alg.change_basis(su2_double, 2.0 * np.eye(6))
    assert np.array_equal(con.mixed_christoffel(a2, gamma), np.einsum("bd,adg->abg", a2.eta_inv, gamma))
