import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflow import algebra as alg
from grflow import checks
from grflow import connection as con
from grflow import curvature as cur
from grflow import metric as met
from grflow.errors import ForbiddenRank, RouteDisagreement


def test_riemann_abelian_zero():
    a = alg.abelian(4, 2)
    D = con.levi_civita(a, met.random_strictly_positive_metric(a, 0).G, None)
    assert np.max(np.abs(cur.riemann(a, D).data)) == 0.0


def test_riemann_symmetries_so3():
    a = alg.so3(1.0)
    D = con.levi_civita(a, np.eye(3), None)
    grm = cur.riemann(a, D).data
    assert cur.riemann_symmetry_residual(a, grm) <= 1e-12


def test_riemann_symmetries_double(su2_double, graph_metric_123):
    D = con.levi_civita(su2_double, graph_metric_123.G, None)
    grm = cur.riemann(su2_double, D).data
    assert cur.riemann_symmetry_residual(su2_double, grm) <= 1e-12
    assert cur.mixed_trace_residual(su2_double, graph_metric_123.G, grm) <= 1e-12


def _mixed_trace_raised(a, g, grm):
    """``mixed_trace_residual`` with the first two slots of grm raised by eta^-1 (oracle for the all-down form)."""
    p_plus, p_minus = met.projectors(g)
    up = np.einsum("ma,nb,mngd->abgd", a.eta_inv, a.eta_inv, grm)
    return float(abs(np.einsum("abgd,ga,db->", up, p_plus, p_minus))) / (1.0 + float(np.max(np.abs(grm))))


def test_mixed_trace_matches_raised_form(preset_metrics):
    # a general 4-tensor, not a Riemann tensor: its mixed trace is O(1), not round-off, and its slots have
    # no pair symmetry that would hide an exchange of P+ and P-. The trace sums n^4 terms that cancel, so
    # the gap is measured against the same sum over their absolute values
    rng = np.random.default_rng(6)
    for label, a, g in preset_metrics:
        p_plus, p_minus = met.projectors(g)
        for _ in range(3):
            grm = rng.standard_normal((a.n,) * 4)
            ref = _mixed_trace_raised(a, g, grm)
            scale = np.einsum("mngd,gm,dn->", np.abs(grm), np.abs(p_plus @ a.eta_inv), np.abs(p_minus @ a.eta_inv))
            assert ref > 0 or a.n == 3, label  # on so(3) G = +-Id, one projector is 0
            assert abs(cur.mixed_trace_residual(a, g, grm) - ref) <= 1e-14 * scale / (1.0 + np.max(np.abs(grm))), label


def test_riemann_warns_on_torsion(su2_double, rng):
    gamma = rng.standard_normal((6, 6, 6))
    gamma = 0.5 * (gamma - gamma.transpose(0, 2, 1))
    with pytest.warns(UserWarning):
        cur.riemann(su2_double, gamma)


def test_riemann_warns_on_nan_connection(su2_double, graph_metric_123):
    # max|T| > bound is false for NaN; the guard is not max|T| <= bound
    gamma = con.levi_civita(su2_double, graph_metric_123.G, None)
    gamma[0, 1, 2] = np.nan
    with pytest.warns(UserWarning, match="torsion"):
        cur.riemann(su2_double, gamma)


def _riemann_einsum(a, gamma):
    """``riemann`` with its commutator, correction, lowering and term 3 as einsums (oracle for its matmuls)."""
    m = np.einsum("bd,adg->abg", a.eta_inv, gamma)
    comm = np.einsum("age,ben->abgn", m, m)
    comm = comm - comm.transpose(1, 0, 2, 3)
    corr = np.einsum("aeb,egn->abgn", m - m.transpose(2, 1, 0), m)
    k_down = np.einsum("dg,abgn->abdn", a.eta, comm - corr)
    term3 = -np.einsum("ab,asr,bmn->mnrs", a.eta_inv, gamma, gamma)
    return 0.5 * (k_down.transpose(2, 3, 0, 1) + k_down.transpose(1, 0, 3, 2) + term3)


@pytest.mark.filterwarnings("ignore:riemann called with a connection of non-negligible torsion")
def test_riemann_matches_einsum(preset_metrics, cap_metric):
    # a Levi-Civita connection, and a general gamma, whose slots have no symmetry that would hide a wrong
    # transpose; the full Ricci contraction of each against its einsum
    rng = np.random.default_rng(12)
    for label, a, g in preset_metrics + [cap_metric]:
        for gamma in (con.levi_civita(a, g, None), rng.standard_normal((a.n,) * 3)):
            ref = _riemann_einsum(a, gamma)
            assert np.max(np.abs(cur.riemann(a, gamma).data - ref)) <= 1e-13 * np.max(np.abs(ref)), label
            fgrc = a.eta_inv @ np.einsum("mr,mnrs->ns", a.eta_inv, ref)
            assert np.max(np.abs(cur.full_ricci(a, gamma) - fgrc)) <= 1e-13 * np.max(np.abs(fgrc)), label


def test_curvature_checks_hold_at_the_cap(cap_metric):
    # the check suite's own residuals and tolerances on one n = 16 instance
    _, a, g = cap_metric
    names = ("ricci_triple_route", "scalar_dual_route", "riemann_symmetries", "riemann_mixed_trace",
             "bianchi_identity")
    results = checks._aggregate({name: checks.INSTANCE_CHECKS[name] for name in names},
                                [checks._Instance(a, g, 16)])
    assert [r.name for r in results if r.passed] == list(names), [r.as_dict() for r in results]


def test_full_ricci_so3_identity():
    a = alg.so3(1.0)
    D = con.levi_civita(a, np.eye(3), None)
    fgrc = cur.full_ricci(a, D)
    assert np.allclose(fgrc, np.eye(3) / 3.0, atol=1e-13)
    assert float(np.trace(np.eye(3) @ fgrc)) == pytest.approx(1.0, abs=1e-12)
    sym = a.eta @ fgrc
    assert np.max(np.abs(sym - sym.T)) <= 1e-12


def test_ricci_abelian_zero():
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 2)
    assert np.max(np.abs(cur.ricci(a, gm.G, None))) == 0.0


def test_ricci_vanishes_at_identity_metric(su2_double):
    grc = cur.ricci(su2_double, np.eye(6), None)
    assert np.max(np.abs(grc)) <= 1e-12


def test_ricci_triple_route(su2_double, graph_metric_123):
    g = graph_metric_123.G
    grc = cur.ricci(su2_double, g, None)  # contraction vs bracket asserted inside
    grc_cf = cur.ricci_closed_form(su2_double, g)
    assert np.max(np.abs(grc - grc_cf)) <= 1e-10 * (1 + np.max(np.abs(grc)))
    grc_br = cur.ricci_bracket_route(su2_double, g, None)
    assert np.max(np.abs(grc - grc_br)) <= 1e-10 * (1 + np.max(np.abs(grc)))


def test_ricci_matches_milnor_values(su2_double, graph_metric_123):
    # Left-invariant metric diag(1,2,3) on SU(2): principal Ricci (0, 0, 2),
    # scalar curvature 0/1 + 0/2 + 2/3.
    gr = cur.scalar(su2_double, graph_metric_123.G, None)
    assert gr == pytest.approx(2.0 / 3.0, abs=1e-12)
    grc = cur.ricci(su2_double, graph_metric_123.G, None)
    assert grc[5, 2] == pytest.approx(2.0, abs=1e-12)  # the xi^3 x_3 slot carries r_3


def test_ricci_blocks_vanish(su2_double, graph_metric_123):
    g = graph_metric_123.G
    grc = cur.ricci(su2_double, g, None)
    p_plus, p_minus = met.projectors(g)
    assert np.max(np.abs(p_plus.T @ (su2_double.eta @ grc) @ p_plus)) <= 1e-12
    assert np.max(np.abs(p_minus.T @ (su2_double.eta @ grc) @ p_minus)) <= 1e-12
    assert np.max(np.abs(g @ grc + grc @ g)) <= 1e-12


def test_ricci_closed_form_random_metric(su2_double):
    for seed in range(4):
        gm = met.random_strictly_positive_metric(su2_double, seed)
        grc = cur.ricci(su2_double, gm.G, None)
        cf = cur.ricci_closed_form(su2_double, gm.G)
        assert np.max(np.abs(grc - cf)) <= 1e-10 * (1 + np.max(np.abs(grc)))


def _ricci_four_terms(a, g):
    """The four-term closed form contracted term by term (oracle for GRc = K - G K G)."""
    c_up = a.c_up
    s = np.einsum("agd,bgd->ab", c_up, a.c)
    c1 = np.einsum("gd,bge->bde", g, a.c)
    c2 = np.einsum("ez,bde->bdz", g, c1)
    term3 = np.einsum("adz,bdz->ab", c_up, c2)
    i1 = np.einsum("gez,he->ghz", c_up, g)
    i2 = np.einsum("tz,ghz->ght", g, i1)
    inner = np.einsum("ght,dht->gd", i2, a.c)
    return 0.25 * (s - g @ s @ g - term3 + g @ inner @ g)


def _scalar_three_terms(a, g, d):
    """The admissible-frame scalar formula contracted term by term (oracle for Tr(G (S/4 - T/12)) - <G e, e>)."""
    e = a.eta_inv @ d
    val = -float(d @ g @ e)
    val += 0.25 * float(np.einsum("ad,abg,dbg->", g, a.c, a.c_up))
    c1 = np.einsum("ad,abg->dbg", g, a.c)
    c2 = np.einsum("be,dbg->deg", g, c1)
    val -= float(np.einsum("gz,deg,dez->", g, c2, a.c_up)) / 12.0
    return val


def test_closed_forms_match_term_by_term(preset_metrics):
    # both a strictly positive G and one with eta G indefinite per preset; the scalar with a nonzero divergence
    rng = np.random.default_rng(8)
    for label, a, g in preset_metrics:
        ref = _ricci_four_terms(a, g)
        assert np.max(np.abs(cur.ricci_closed_form(a, g) - ref)) <= 1e-13 * (1 + np.max(np.abs(ref))), label
        d = rng.standard_normal(a.n)
        gr = _scalar_three_terms(a, g, d)
        assert cur.scalar_closed_form(a, g, con.Divergence(d)) == pytest.approx(gr, abs=1e-13 * (1 + abs(gr))), label


def test_closed_forms_take_the_moved_gram_bitwise(su2_double, complex_double):
    # a given T is the one they would form; d = None is the zero divergence, whose term is skipped
    for a in (su2_double, complex_double):
        for seed in range(5):
            g = met.random_strictly_positive_metric(a, seed).G
            t = cur.moved_gram(a, g)
            assert np.array_equal(cur.ricci_closed_form(a, g, t=t), cur.ricci_closed_form(a, g))
            gr = cur.scalar_closed_form(a, g, None)
            assert cur.scalar_closed_form(a, g, None, t) == gr
            assert cur.scalar_closed_form(a, g, con.Divergence(np.zeros(a.n))) == gr


def test_route_disagreement_raises(monkeypatch, su2_double, graph_metric_123):
    g = graph_metric_123.G
    bracket, closed = cur.ricci_bracket_route, cur.scalar_closed_form
    monkeypatch.setattr(cur, "ricci_bracket_route", lambda *args: bracket(*args) + 1e-6)
    with pytest.raises(RouteDisagreement, match="Ricci routes disagree"):
        cur.ricci(su2_double, g, None)
    monkeypatch.setattr(cur, "scalar_closed_form", lambda *args: closed(*args) + 1e-6)
    with pytest.raises(RouteDisagreement, match="scalar routes disagree"):
        cur.scalar(su2_double, g, None)


def test_nan_route_disagrees(monkeypatch, su2_double, graph_metric_123):
    # a NaN gap is no agreement: each route raises, and the report carries the NaN
    g = graph_metric_123.G
    monkeypatch.setattr(cur, "ricci_bracket_route", lambda a, g, d=None: np.full((a.n, a.n), np.nan))
    monkeypatch.setattr(cur, "scalar_closed_form", lambda *args: float("nan"))
    with pytest.raises(RouteDisagreement, match="Ricci routes disagree"):
        cur.ricci(su2_double, g, None)
    with pytest.raises(RouteDisagreement, match="scalar routes disagree"):
        cur.scalar(su2_double, g, None)
    rep = cur.curvature_report(su2_double, g)
    assert np.isnan(rep.route_residual_ricci) and np.isnan(rep.route_residual_scalar)


@pytest.mark.parametrize("route", [con.levi_civita, cur.scalar, cur.ricci, cur.curvature_report],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("a, g", [(alg.abelian(4, 3), np.diag([1.0, -1.0, -1.0, -1.0])),
                                  (alg.so3(1.0), np.diag([1.0, -1.0, -1.0]))], ids=["abelian", "so3"])
def test_rank_one_metric_is_forbidden(route, a, g):
    # eigenbundle rank 1: kappa' divides by n+- - 1, so no Levi-Civita connection with prescribed divergence
    with pytest.raises(ForbiddenRank):
        route(a, g, None)


def test_scalar_so3_unit():
    a = alg.so3(1.0)
    assert cur.scalar(a, np.eye(3), None) == pytest.approx(1.0, abs=1e-13)
    assert cur.scalar_closed_form(a, np.eye(3), None) == pytest.approx(1.0, abs=1e-13)


def test_scalar_closed_form_identity_metric(su2_double, complex_double):
    # G = Id gives (1/6) ||c||^2_eta
    for a in (su2_double, complex_double):
        assert cur.scalar_closed_form(a, np.eye(a.n), None) == pytest.approx(a.norm_c_sq() / 6.0, abs=1e-12)


def test_scalar_divergence_shift(su2_double, graph_metric_123, rng):
    e = rng.standard_normal(6)
    lhs, rhs = cur.scalar_divergence_shift(su2_double, graph_metric_123.G, e)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))
    # dual-route scalar with the shifted divergence also passes its internal assert
    d = cur.divergence_from_vector(su2_double, e)
    cur.scalar(su2_double, graph_metric_123.G, d)


def test_scalar_divergence_shift_abelian(rng):
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 1)
    e = rng.standard_normal(4)
    d = cur.divergence_from_vector(a, e)
    val = cur.scalar(a, gm.G, d)
    assert val == pytest.approx(-float(e @ a.eta @ gm.G @ e), abs=1e-12)


def test_dirac_square_values(su2_double):
    assert cur.dirac_square(alg.abelian(4, 2)) == 0.0
    assert cur.dirac_square(alg.so3(1.0)) == pytest.approx(-0.125, abs=1e-14)
    assert cur.dirac_square(su2_double) == pytest.approx(0.0, abs=1e-14)


def test_ricci_divergence_shift_check(su2_double, graph_metric_123, rng):
    assert cur.ricci_divergence_shift_check(su2_double, graph_metric_123.G, np.zeros(6)) <= 1e-14
    e = rng.standard_normal(6)
    assert cur.ricci_divergence_shift_check(su2_double, graph_metric_123.G, e) <= 1e-10
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 3)
    assert cur.ricci_divergence_shift_check(a, gm.G, rng.standard_normal(4)) <= 1e-12


def test_bianchi_residuals(su2_double, complex_double):
    a = alg.abelian(4, 2)
    assert cur.bianchi_residual(a, met.random_strictly_positive_metric(a, 0).G) == 0.0
    assert cur.bianchi_residual(alg.so3(1.0), np.eye(3)) <= 1e-13
    for dbl in (su2_double, complex_double):
        gm = met.random_strictly_positive_metric(dbl, 5)
        assert cur.bianchi_residual(dbl, gm.G) <= 1e-10
        assert cur.bianchi_divergence_residual(dbl, gm.G) <= 1e-10


def test_curvature_equivariance(su2_double, rng):
    from scipy.linalg import expm

    gm = met.random_strictly_positive_metric(su2_double, 6)
    phi = expm(0.3 * su2_double.ad(rng.standard_normal(6)))
    g2 = phi @ gm.G @ np.linalg.inv(phi)
    lhs = cur.ricci_closed_form(su2_double, g2)
    rhs = phi @ cur.ricci_closed_form(su2_double, gm.G) @ np.linalg.inv(phi)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_norm_ricci_nonnegative_strictly_positive(su2_double):
    for seed in range(4):
        gm = met.random_strictly_positive_metric(su2_double, seed)
        grc_dd = su2_double.eta @ cur.ricci(su2_double, gm.G, None)
        val = met.mixed_norm_sq(su2_double, grc_dd)
        assert val >= 0
        fr = met.adapted_frame(su2_double, gm.G)
        ad = fr.Q.T @ grc_dd @ fr.Q
        mixed = ad[: fr.n_plus, fr.n_plus :]
        assert val == pytest.approx(2 * float(np.sum(mixed**2)), abs=1e-12 * (1 + val))


def test_curvature_report(su2_double, graph_metric_123):
    rep = cur.curvature_report(su2_double, graph_metric_123.G, None)
    assert rep.symmetry_residual <= 1e-12
    assert rep.mixed_trace_residual <= 1e-12
    assert rep.route_residual_ricci <= 1e-10
    assert rep.route_residual_scalar <= 1e-10
    d = rep.as_dict()
    assert d["scalar"] == rep.scalar
    assert len(d["riemann"]) == 6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), preset=st.sampled_from(checks.PRESETS))
def test_curvature_basis_change_invariance(seed, preset):
    # P = Q1 diag(0.5..2) Q2 as in grf check; G2 = P^-1 G P is the same metric in the new basis
    a = preset[1]()
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
    q2, _ = np.linalg.qr(rng.standard_normal((a.n, a.n)))
    p = q1 @ np.diag(rng.uniform(0.5, 2.0, a.n)) @ q2
    p_inv = np.linalg.inv(p)
    g = met.random_strictly_positive_metric(a, int(rng.integers(2**31))).G
    a2, g2 = alg.change_basis(a, p), p_inv @ g @ p
    grc = cur.ricci_closed_form(a, g)
    grc2 = cur.ricci_closed_form(a2, g2)
    assert np.max(np.abs(grc2 - p_inv @ grc @ p)) <= 1e-10 * (1 + np.max(np.abs(grc)))
    gr = cur.scalar_closed_form(a, g)
    assert cur.scalar_closed_form(a2, g2) == pytest.approx(gr, abs=1e-10 * (1 + abs(gr)))
    nrm = met.mixed_norm_sq(a, a.eta @ grc)
    assert met.mixed_norm_sq(a2, a2.eta @ grc2) == pytest.approx(nrm, abs=1e-10 * (1 + abs(nrm)))
    rep = cur.curvature_report(a2, g2, None)
    assert rep.route_residual_ricci <= 1e-10 and rep.route_residual_scalar <= 1e-10
