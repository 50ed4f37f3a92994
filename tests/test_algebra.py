import numpy as np
import pytest

from grflow import algebra as alg
from grflow import connection as con
from grflow import metric as met
from grflow.errors import InvalidLieAlgebra, NonInvertiblePairing, SingularBasis


def test_abelian_preset_validates():
    a = alg.abelian(4, 2)
    rep = alg.validate_algebra(a)
    assert rep.passed
    assert rep.eta_signature == (2, 2)
    assert rep.antisymmetry_residual == 0.0
    assert rep.jacobi_residual == 0.0


def test_so3_preset():
    a = alg.so3(1.0)
    rep = alg.validate_algebra(a)
    assert rep.passed and rep.eta_signature == (3, 0)
    # sum of squared epsilon entries
    assert a.norm_c_sq() == pytest.approx(6.0, abs=1e-14)


def test_non_antisymmetric_c_fails():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # violates c_abk = -c_bak
    a = alg.QuadraticLieAlgebra(np.eye(3), c)
    rep = alg.validate_algebra(a)
    assert not rep.passed
    assert rep.antisymmetry_residual == pytest.approx(2.0)


def test_singular_eta_rejected():
    with pytest.raises(NonInvertiblePairing):
        alg.QuadraticLieAlgebra(np.diag([1.0, 1e-15]), np.zeros((2, 2, 2)))


def test_non_symmetric_eta_rejected():
    with pytest.raises(NonInvertiblePairing, match="eta is not symmetric"):
        alg.QuadraticLieAlgebra(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2, 2)))


def test_abelian_signature_out_of_range_rejected():
    with pytest.raises(NonInvertiblePairing, match=r"signature \(5,-1\) invalid"):
        alg.abelian(4, 5)


def test_unknown_base_algebra_rejected():
    with pytest.raises(InvalidLieAlgebra, match="unknown base Lie algebra preset 'sl2'"):
        alg.preset_algebra("cotangent_double", h="sl2")


def test_jacobi_violation_detected():
    # c totally antisymmetric but not Jacobi: generic 6-dim antisymmetric tensor
    rng = np.random.default_rng(0)
    from grflow.connection import antisymmetrize3

    c = antisymmetrize3(rng.standard_normal((6, 6, 6)))
    a = alg.QuadraticLieAlgebra(np.eye(6), c)
    rep = alg.validate_algebra(a)
    assert rep.antisymmetry_residual <= 1e-14
    assert rep.jacobi_residual > 1e-3


def test_cotangent_double_su2(su2_double):
    rep = alg.validate_algebra(su2_double)
    assert rep.passed
    assert rep.jacobi_residual == 0.0
    assert rep.eta_signature == (3, 3)
    assert su2_double.n == 6


def test_cotangent_double_rejects_non_lie():
    f = np.zeros((4, 4, 4))
    f[0, 1, 2] = 1.0
    f[1, 0, 2] = -1.0
    f[2, 3, 0] = 1.0
    f[3, 2, 0] = -1.0
    with pytest.raises(InvalidLieAlgebra):
        alg.cotangent_double(f)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_cotangent_double_accepts_round_off_at_every_scale(scale):
    # one coefficient off by a relative 1e-12: the double is a Lie algebra to round-off at any scale of h
    f = scale * alg.su2_structure()
    f[0, 1, 2] *= 1 + 1e-12
    assert alg.validate_algebra(alg.cotangent_double(f)).passed


def test_complex_double_su2(complex_double):
    rep = alg.validate_algebra(complex_double)
    assert rep.passed and rep.eta_signature == (3, 3)


def test_change_basis_identity(su2_double):
    out = alg.change_basis(su2_double, np.eye(6))
    assert np.array_equal(out.eta, su2_double.eta)
    assert np.array_equal(out.c, su2_double.c)


def test_change_basis_scaling():
    a = alg.so3(1.0)
    out = alg.change_basis(a, 2.0 * np.eye(3))
    assert np.allclose(out.eta, 4.0 * np.eye(3))
    assert np.allclose(out.c, 8.0 * alg.epsilon3())


def test_change_basis_roundtrip_and_jacobi(su2_double, rng):
    p = rng.standard_normal((6, 6)) + 2 * np.eye(6)
    out = alg.change_basis(su2_double, p)
    assert alg.validate_algebra(out).jacobi_residual <= 1e-10
    back = alg.change_basis(out, np.linalg.inv(p))
    assert np.max(np.abs(back.eta - su2_double.eta)) <= 1e-12 * np.max(np.abs(su2_double.eta))
    assert np.max(np.abs(back.c - su2_double.c)) <= 1e-12


def test_change_basis_rejects_singular(su2_double):
    p = np.zeros((6, 6))
    with pytest.raises(SingularBasis):
        alg.change_basis(su2_double, p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_change_basis_rejects_non_finite(su2_double, bad):
    p = np.eye(6)
    p[2, 3] = bad
    with pytest.raises(SingularBasis, match="finite"):
        alg.change_basis(su2_double, p)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_eta_rejected(bad):
    # an infinite eigenvalue once gave eta_inv = diag(1, 1, 0), an algebra validate_algebra passed
    with pytest.raises(NonInvertiblePairing, match="finite"):
        alg.QuadraticLieAlgebra(np.diag([1.0, 1.0, bad]), np.zeros((3, 3, 3)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_c_rejected(bad):
    c = alg.epsilon3()
    c[0, 1, 2] = bad
    with pytest.raises(InvalidLieAlgebra, match="finite"):
        alg.QuadraticLieAlgebra(np.eye(3), c)


@pytest.mark.parametrize("h", [[["a"]], [[1, 2], [3]], {"x": 1}, True, None, [[1.0, 0.0], [0.0, 1.0]]])
def test_malformed_h_is_an_invalid_lie_algebra(h):
    with pytest.raises(InvalidLieAlgebra, match="h structure constants"):
        alg.preset_algebra("cotangent_double", h=h)


def test_validate_algebra_past_the_float_range_reports():
    # so(3) at scale 2^512: the Jacobi terms and the squared scale overflow, where a Python float power raised
    with np.errstate(over="ignore", invalid="ignore"):
        rep = alg.validate_algebra(alg.so3(2.0 ** 512))
    assert rep.antisymmetry_residual == 0.0 and np.isnan(rep.jacobi_residual) and not rep.passed


def test_norm_c_invariant_under_eta_orthogonal(su2_double, rng):
    from scipy.linalg import expm

    from grflow.metric import random_eta_antisymmetric

    k = random_eta_antisymmetric(su2_double, 3)
    out = alg.change_basis(su2_double, expm(0.4 * k))
    assert out.norm_c_sq() == pytest.approx(su2_double.norm_c_sq(), abs=1e-10)


def test_bracket_matches_structure_tensor(su2_double, rng):
    u = rng.standard_normal(6)
    v = rng.standard_normal(6)
    w = rng.standard_normal(6)
    lhs = float(su2_double.bracket(u, v) @ su2_double.eta @ w)
    rhs = float(np.einsum("a,b,g,abg->", u, v, w, su2_double.c))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_preset_registry():
    assert alg.preset_algebra("abelian", n=4, p=2).n == 4
    assert alg.preset_algebra("so3", scale=2.0).norm_c_sq() == pytest.approx(24.0)
    assert alg.preset_algebra("cotangent_double", h="su2").n == 6
    assert alg.preset_algebra("complex_double_su2").n == 6
    with pytest.raises(InvalidLieAlgebra):
        alg.preset_algebra("nope")


def _close(x, ref, tol=1e-13):
    return np.max(np.abs(x - ref)) <= tol * np.max(np.abs(ref))


def _algebras(preset_metrics, cap_metric):
    """Each algebra of ``preset_metrics`` once, and the n = 16 one."""
    return {label.split("/")[0]: a for label, a, _ in preset_metrics + [cap_metric]}


def _slots_einsum(p, t):
    """The slot transform as one einsum over every n^6 index tuple (oracle for ``_transform_slots``)."""
    return np.einsum("da,eb,zg,dez->abg", p, p, p, t)


def test_slot_transform_matches_einsum(preset_metrics, cap_metric):
    # c_up (eta^-1 in every slot), change_basis (a random basis), and the adapted frames Q and Q^-1 with
    # which connection_variation_blockwise moves a 3-tensor, here a general one
    rng = np.random.default_rng(7)
    for label, a in _algebras(preset_metrics, cap_metric).items():
        assert _close(a.c_up, _slots_einsum(a.eta_inv.T, a.c)), label
        p = rng.standard_normal((a.n, a.n))
        assert _close(alg.change_basis(a, p).c, _slots_einsum(p, a.c)), label
    for label, a, g in preset_metrics + [cap_metric]:
        fr = met.adapted_frame(a, g)
        t = rng.standard_normal((a.n,) * 3)
        for q in (fr.Q, fr.Q_inv):
            assert _close(alg._transform_slots(q, t), _slots_einsum(q, t)), label


def _jacobi_residual_einsum(a):
    """``validate_algebra``'s Jacobi residual with the Jacobi tensor as an einsum over all n^5 index tuples."""
    cm = a.c_mixed
    j = np.einsum("abe,egd->abgd", cm, cm)
    jac = j + j.transpose(1, 2, 0, 3) + j.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(jac))) / float(np.max(np.abs(cm))) ** 2


def test_jacobi_tensor_matches_einsum(preset_metrics, cap_metric):
    # a valid algebra reads round-off on both routes, so the structure tensor is a random alternating one,
    # which breaks Jacobi at O(1) from n = 5 on (below, every alternating c is a Lie bracket)
    rng = np.random.default_rng(8)
    for label, a in _algebras(preset_metrics, cap_metric).items():
        b = alg.QuadraticLieAlgebra(a.eta, con.antisymmetrize3(rng.standard_normal((a.n,) * 3)))
        ref = _jacobi_residual_einsum(b)
        assert ref > 1e-3 or a.n < 5, label
        assert abs(alg.validate_algebra(b).jacobi_residual - ref) <= 1e-13 * max(ref, 1.0), label
