import numpy as np
import pytest

from grflow import algebra as alg
from grflow import metric as met
from grflow.errors import DegenerateSubspace, ForbiddenRank


def test_whole_space_gives_identity(su2_double):
    gm = met.metric_from_subspace(su2_double, np.eye(6))
    assert np.allclose(gm.G, np.eye(6))
    assert gm.n_minus == 0


def test_graph_metric_strictly_positive(graph_metric_123):
    assert graph_metric_123.strictly_positive
    assert graph_metric_123.n_plus == 3 and graph_metric_123.n_minus == 3


def test_forbidden_rank_line():
    a = alg.abelian(4, 2)
    with pytest.raises(ForbiddenRank):
        met.metric_from_subspace(a, np.array([[1.0, 0.0, 0.0, 0.0]]).T)


def test_degenerate_subspace_rejected():
    a = alg.abelian(4, 2)
    # null vectors: e1 + e3 and e2 + e4 span an isotropic plane
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateSubspace):
        met.metric_from_subspace(a, v)


def test_validate_metric_identity():
    a = alg.abelian(4, 2)
    rep = met.validate_metric(a, np.eye(4))
    assert rep.pseudometric and rep.n_minus == 0
    assert not rep.strictly_positive  # eta has signature (2,2)
    a2 = alg.so3(1.0)
    rep2 = met.validate_metric(a2, np.eye(3))
    assert rep2.pseudometric and rep2.strictly_positive


def test_validate_metric_minus_identity():
    a = alg.so3(1.0)
    rep = met.validate_metric(a, -np.eye(3))
    assert rep.pseudometric
    assert not rep.strictly_positive


def test_validate_metric_garbage():
    a = alg.so3(1.0)
    rep = met.validate_metric(a, np.array([[1.0, 1.0, 0], [0, 1, 0], [0, 0, 1]]))
    assert not rep.pseudometric


def test_validate_metric_wrong_shape():
    a = alg.so3(1.0)
    for g in (np.eye(2), np.ones(3), np.eye(4)[:3]):
        rep = met.validate_metric(a, g)
        assert not rep.pseudometric and not rep.strictly_positive
        assert rep.involution_residual == np.inf and rep.eta_symmetry_residual == np.inf
    with pytest.raises(DegenerateSubspace, match=r"shape \(2, 2\)"):
        met.GeneralizedPseudometric.from_matrix(a, np.eye(2))


def test_metric_invariants_random(su2_double):
    for seed in range(5):
        gm = met.random_strictly_positive_metric(su2_double, seed)
        assert met.involution_residual(gm.G) <= 1e-10
        assert met.eta_symmetry_residual(su2_double, gm.G) <= 1e-10
        p_plus, p_minus = met.projectors(gm.G)
        assert np.max(np.abs(p_plus @ p_plus - p_plus)) <= 1e-12
        assert np.max(np.abs(p_plus @ p_minus)) <= 1e-12
        assert np.max(np.abs(p_plus + p_minus - np.eye(6))) <= 1e-12


def test_adapted_frame_already_adapted():
    a = alg.abelian(4, 2)
    G = np.diag([1.0, 1.0, -1.0, -1.0])  # adapted: V+ = span(e1,e2)
    fr = met.adapted_frame(a, G)
    assert np.allclose(np.abs(fr.Q), np.eye(4))


def test_adapted_frame_graph_metric(su2_double, graph_metric_123):
    fr = met.adapted_frame(su2_double, graph_metric_123.G)
    eta_t = fr.Q.T @ su2_double.eta @ fr.Q
    assert np.max(np.abs(eta_t - np.diag([1, 1, 1, -1, -1, -1]))) <= 1e-10
    g_t = fr.Q_inv @ graph_metric_123.G @ fr.Q
    assert np.max(np.abs(g_t - np.diag([1, 1, 1, -1, -1, -1]))) <= 1e-10


def test_adapted_frame_empty_minus_block():
    a = alg.abelian(4, 2)
    fr = met.adapted_frame(a, np.eye(4))  # V- empty; no DegenerateSubspace
    assert fr.n_minus == 0
    eta_t = fr.Q.T @ a.eta @ fr.Q
    assert np.max(np.abs(eta_t - np.diag([1, 1, -1, -1]))) <= 1e-10


def test_lie_derivative_abelian_vanishes(rng):
    a = alg.abelian(4, 2)
    gm = met.random_strictly_positive_metric(a, 0)
    out = met.lie_derivative_metric(a, gm.G, rng.standard_normal(4))
    assert np.max(np.abs(out.chi)) == 0.0


def test_lie_derivative_zero_vector(su2_double, graph_metric_123):
    out = met.lie_derivative_metric(su2_double, graph_metric_123.G, np.zeros(6))
    assert np.max(np.abs(out.chi)) == 0.0


def test_lie_derivative_tangency(complex_double, rng):
    gm = met.random_strictly_positive_metric(complex_double, 7)
    u = rng.standard_normal(6)
    out = met.lie_derivative_metric(complex_double, gm.G, u).chi
    assert np.max(np.abs(out @ gm.G + gm.G @ out)) <= 1e-12 * max(1, np.max(np.abs(out)))
    sym = complex_double.eta @ out
    assert np.max(np.abs(sym - sym.T)) <= 1e-12 * max(1, np.max(np.abs(out)))
    # blockwise: (L_u G) maps V+ into V-
    p_plus, p_minus = met.projectors(gm.G)
    assert np.max(np.abs(p_plus @ out @ p_plus)) <= 1e-12 * max(1, np.max(np.abs(out)))


def test_random_tangent_deterministic(su2_double, graph_metric_123):
    t1 = met.random_tangent(su2_double, graph_metric_123.G, 42).chi
    t2 = met.random_tangent(su2_double, graph_metric_123.G, 42).chi
    assert np.array_equal(t1, t2)


def test_random_tangent_trivial_space():
    a = alg.so3(1.0)
    chi = met.random_tangent(a, np.eye(3), 5).chi
    assert np.max(np.abs(chi)) <= 1e-15


def test_random_tangent_invariants(su2_double, graph_metric_123):
    g = graph_metric_123.G
    chi = met.random_tangent(su2_double, g, 3).chi
    scale = np.max(np.abs(chi))
    assert np.max(np.abs(chi @ g + g @ chi)) <= 1e-13 * scale
    sym = su2_double.eta @ chi
    assert np.max(np.abs(sym - sym.T)) <= 1e-13 * scale
    met.MetricTangent.from_matrix(su2_double, g, chi)  # does not raise


def test_tangent_norm_identity(su2_double, graph_metric_123):
    g = graph_metric_123.G
    chi = met.random_tangent(su2_double, g, 9).chi
    fr = met.adapted_frame(su2_double, g)
    chi_ad = fr.Q.T @ (su2_double.eta @ chi) @ fr.Q
    mixed = chi_ad[: fr.n_plus, fr.n_plus :]
    lhs = met.mixed_norm_sq(su2_double, su2_double.eta @ chi)
    assert lhs >= 0
    assert lhs == pytest.approx(2.0 * float(np.sum(mixed**2)), abs=1e-12 * (1 + lhs))


def test_metric_tangent_validation_rejects(su2_double, graph_metric_123, rng):
    with pytest.raises(DegenerateSubspace):
        met.MetricTangent.from_matrix(su2_double, graph_metric_123.G, rng.standard_normal((6, 6)))
