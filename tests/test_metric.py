import numpy as np
import pytest
from scipy.linalg import expm

from grflow import algebra as alg
from grflow import checks
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


def test_forbidden_rank_hyperplane_names_both_ranks():
    # V- of rank 1: GeneralizedPseudometric.from_matrix states the rank rule for every metric constructor
    with pytest.raises(ForbiddenRank, match=r"^eigenbundle ranks \(3,1\) include 1$"):
        met.metric_from_subspace(alg.abelian(4, 2), np.eye(4)[:, :3])


def test_degenerate_subspace_rejected():
    a = alg.abelian(4, 2)
    # null vectors: e1 + e3 and e2 + e4 span an isotropic plane
    v = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DegenerateSubspace):
        met.metric_from_subspace(a, v)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_basis_is_a_degenerate_subspace(su2_double, bad):
    with pytest.raises(DegenerateSubspace, match="finite"):
        met.metric_from_graph(su2_double, np.diag([1.0, 2.0, bad]))


@pytest.mark.parametrize("g, b", [
    (np.zeros((3, 1)), np.zeros((2, 1))),  # shapes that do not broadcast
    (np.zeros((3, 1, 1)), None),
    (np.eye(3), np.zeros((3, 3, 1))),
    (np.eye(2), None),
])
def test_graph_of_the_wrong_shape_is_a_degenerate_subspace(su2_double, g, b):
    with pytest.raises(DegenerateSubspace, match="graph construction needs g and B of shape"):
        met.metric_from_graph(su2_double, g, b)


def test_graph_needs_symmetric_g_and_antisymmetric_b(su2_double):
    # only g + B enters: a symmetric B gave bitwise the G of g + B, and g's antisymmetric part acted as B
    g = np.diag([1.0, 2.0, 3.0])
    s = np.array([[0.0, 0.3, 0.0], [0.3, 0.0, 0.0], [0.0, 0.0, 0.1]])
    w = np.array([[0.0, 0.3, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for g_bad, b_bad in ((g, s), (g + w, None), (g + w, w)):
        with pytest.raises(DegenerateSubspace, match="g symmetric and B antisymmetric"):
            met.metric_from_graph(su2_double, g_bad, b_bad)
    # round-off asymmetry within METRIC_TOL of max|g| passes, at a large scale too
    gs = 1e6 * (g + s)
    assert met.metric_from_graph(su2_double, gs + 1e-5 * w, w + 1e-5 * s).strictly_positive


def test_subspace_basis_of_three_dimensions_rejected():
    with pytest.raises(DegenerateSubspace, match="finite vectors"):
        met.metric_from_subspace(alg.so3(), np.zeros((1, 3, 1)))


def test_subspace_basis_given_as_rows(su2_double):
    # three vectors of R^6 as the rows of a 3 x 6 array: the metric of the same vectors as columns
    v = np.random.default_rng(5).standard_normal((3, 6))
    assert np.array_equal(met.metric_from_subspace(su2_double, v).G, met.metric_from_subspace(su2_double, v.T).G)


def test_random_positive_metric_without_a_positive_block():
    # eta negative definite: V+ = 0, and G = -Id is the only strictly positive metric
    assert np.array_equal(met.random_strictly_positive_metric(alg.abelian(2, 0), 0).G, -np.eye(2))
    with pytest.raises(ForbiddenRank):
        met.random_strictly_positive_metric(alg.abelian(1, 0), 0)


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


def test_involution_residual_is_the_subtracted_identitys_bitwise(su2_double):
    # Id is taken off G^2's diagonal in place: the same floats as G^2 - Id, overflow, NaN and inf included
    rng = np.random.default_rng(3)
    planted = rng.standard_normal((5, 5))
    planted[1, 2], planted[3, 3] = np.nan, np.inf
    cases = [rng.standard_normal((n, n)) for n in (2, 3, 6, 16)] + [
        met.random_strictly_positive_metric(su2_double, 0).G,
        1e200 * rng.standard_normal((4, 4)),  # G^2 overflows to +-inf
        planted,
        np.full((3, 3), np.inf),  # inf - inf in G^2: NaN
        np.full((3, 3), np.nan),
    ]
    for g in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            ref = float(np.max(np.abs(g @ g - np.eye(g.shape[0]))))
        got = met.involution_residual(g)  # any warning is an error here
        assert np.float64(got).tobytes() == np.float64(ref).tobytes(), (g, got, ref)


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


def _mixed_signature_metric(a, seed):
    """V+ of signature (p-1, 1), rotated by a random eta-orthogonal map; eta must be indefinite."""
    w, u = np.linalg.eigh(a.eta)
    order = np.argsort(-w, kind="stable")
    frame = u[:, order] / np.sqrt(np.abs(w[order]))
    p = int(np.sum(w > 0))
    rot = expm(0.5 * met.random_eta_antisymmetric(a, seed))
    return met.metric_from_subspace(a, rot @ frame[:, list(range(p - 1)) + [p]]).G


def _frame_kinds(name):
    yield "strictly_positive"
    if name != "so3":  # eta is definite on so(3): no subspace of mixed signature
        yield "mixed_signature"
    if "double" in name:
        yield from ("identity", "minus_identity")


@pytest.mark.parametrize("make, kind", [
    pytest.param(make, kind, id=f"{name}-{kind}") for name, make in checks.PRESETS for kind in _frame_kinds(name)
])
def test_adapted_frame_block_structure(make, kind):
    a = make()
    g = {
        "strictly_positive": lambda: met.random_strictly_positive_metric(a, 11).G,
        "mixed_signature": lambda: _mixed_signature_metric(a, 12),
        "identity": lambda: np.eye(a.n),
        "minus_identity": lambda: -np.eye(a.n),
    }[kind]()
    fr = met.adapted_frame(a, g)
    q, s = fr.Q, fr.signs
    assert np.max(np.abs(q.T @ a.eta @ q - np.diag(s))) <= 1e-14 * max(1.0, np.max(np.abs(q)) ** 2)
    blocks = np.diag(np.r_[np.ones(fr.n_plus), -np.ones(fr.n_minus)])
    assert np.max(np.abs(fr.Q_inv @ g @ q - blocks)) <= 1e-12 * max(1.0, np.max(np.abs(q)) * np.max(np.abs(fr.Q_inv)))
    assert set(s) <= {1.0, -1.0}
    for block in (s[: fr.n_plus], s[fr.n_plus :]):
        assert np.all(np.diff(block) <= 0)  # +1 first
    if kind == "strictly_positive":
        assert np.array_equal(s, np.diag(blocks))
    if kind == "mixed_signature":
        assert {1.0, -1.0} <= set(s[: fr.n_plus]) and {1.0, -1.0} <= set(s[fr.n_plus :])


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
    assert np.max(np.abs(out)) == 0.0


def test_lie_derivative_zero_vector(su2_double, graph_metric_123):
    out = met.lie_derivative_metric(su2_double, graph_metric_123.G, np.zeros(6))
    assert np.max(np.abs(out)) == 0.0


def test_lie_derivative_tangency(complex_double, rng):
    gm = met.random_strictly_positive_metric(complex_double, 7)
    u = rng.standard_normal(6)
    out = met.lie_derivative_metric(complex_double, gm.G, u)
    assert np.max(np.abs(out @ gm.G + gm.G @ out)) <= 1e-12 * max(1, np.max(np.abs(out)))
    sym = complex_double.eta @ out
    assert np.max(np.abs(sym - sym.T)) <= 1e-12 * max(1, np.max(np.abs(out)))
    # blockwise: (L_u G) maps V+ into V-
    p_plus, p_minus = met.projectors(gm.G)
    assert np.max(np.abs(p_plus @ out @ p_plus)) <= 1e-12 * max(1, np.max(np.abs(out)))


def test_random_tangent_deterministic(su2_double, graph_metric_123):
    t1 = met.random_tangent(su2_double, graph_metric_123.G, 42)
    t2 = met.random_tangent(su2_double, graph_metric_123.G, 42)
    assert np.array_equal(t1, t2)


def test_random_tangent_trivial_space():
    a = alg.so3(1.0)
    chi = met.random_tangent(a, np.eye(3), 5)
    assert np.max(np.abs(chi)) <= 1e-15


def test_random_tangent_invariants(su2_double, graph_metric_123):
    g = graph_metric_123.G
    chi = met.random_tangent(su2_double, g, 3)
    scale = np.max(np.abs(chi))
    assert np.max(np.abs(chi @ g + g @ chi)) <= 1e-13 * scale
    sym = su2_double.eta @ chi
    assert np.max(np.abs(sym - sym.T)) <= 1e-13 * scale


def test_tangent_norm_identity(su2_double, graph_metric_123):
    g = graph_metric_123.G
    chi = met.random_tangent(su2_double, g, 9)
    fr = met.adapted_frame(su2_double, g)
    chi_ad = fr.Q.T @ (su2_double.eta @ chi) @ fr.Q
    mixed = chi_ad[: fr.n_plus, fr.n_plus :]
    lhs = met.mixed_norm_sq(su2_double, su2_double.eta @ chi)
    assert lhs >= 0
    assert lhs == pytest.approx(2.0 * float(np.sum(mixed**2)), abs=1e-12 * (1 + lhs))
