import hashlib
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as hst

from grflow import algebra as alg
from grflow import checks
from grflow import exact_torus as et
from grflow.errors import DegenerateMetric, EigensolverStalled, ValidationError


@pytest.fixture(scope="module")
def geom16():
    return et.TorusGeometry(3, 16, 2 * np.pi)


@pytest.fixture(scope="module")
def geom8():
    return et.TorusGeometry(3, 8, 2 * np.pi)


def test_geometry_validation():
    with pytest.raises(ValidationError):
        et.TorusGeometry(4, 16)
    with pytest.raises(ValidationError):
        et.TorusGeometry(3, 7)
    with pytest.raises(ValidationError):
        et.TorusGeometry(3, 6)
    # 1e300 and 1e-300 are finite, but h^3 overflows and underflows: every measure reads h^d
    for period in (0.0, -1.0, float("nan"), float("inf"), 1e300, 1e-300):
        with pytest.raises(ValidationError, match="period"):
            et.TorusGeometry(3, 8, period)


def test_h0_on_t2_rejected():
    geom = et.TorusGeometry(2, 8)
    with pytest.raises(ValidationError, match="T\\^2"):
        et.TorusFieldState.from_full(geom, np.eye(2), 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        et.flat_state(geom, k=1.0)


@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_nonfinite_flux_rejected(geom8, k):
    with pytest.raises(ValidationError, match="finite"):
        et.flat_state(geom8, k=k)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["g", "b", "phi"])
def test_nonfinite_fields_rejected(geom8, name, value):
    st = et.flat_state(geom8)
    arrays = {"g": st.gs, "b": st.b, "phi": st.phi}
    arrays[name][(1, 2, 3)] = value
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        et.TorusFieldState(geom8, arrays["g"], arrays["b"], arrays["phi"], 0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_state_holds_b_and_derives_B(d):
    # b = *B has d(d - 1)/2 components, the component axis first; B is antisymmetric bitwise, read-only and
    # max|B| = max|b|
    geom = et.TorusGeometry(d, 8)
    st = et.perturbed_state(geom, 3, amplitude=0.1)
    assert st.b.shape == (d * (d - 1) // 2,) + geom.shape
    B = st.B
    assert B.shape == geom.shape + (d, d) and np.any(B)
    assert np.array_equal(B, -np.swapaxes(B, -1, -2))
    assert np.array_equal(et.form_slots(B), st.b)
    assert np.max(np.abs(B)) == np.max(np.abs(st.b))
    with pytest.raises(ValueError, match="read-only"):
        st.B[(0,) * d + (0, 1)] = 1.0
    for wrong in (np.zeros(geom.shape + (d, d)), np.zeros((d * (d - 1) // 2 + 1,) + geom.shape),
                  np.zeros(geom.shape + (d * (d - 1) // 2,))):
        with pytest.raises(ValidationError, match="do not match the grid"):
            et.TorusFieldState(geom, st.gs, wrong, st.phi, 0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_state_holds_g_pairs_and_derives_g(d):
    # gs holds the d(d + 1)/2 pairs i <= j, the pair axis first; g keeps the grid first and the matrix last, is
    # symmetric bitwise, holds each pair in both slots, is read-only and max|g| = max|gs|
    geom = et.TorusGeometry(d, 8)
    st = et.perturbed_state(geom, 3, amplitude=0.1)
    iu, ju = np.triu_indices(d)
    assert st.gs.shape == (d * (d + 1) // 2,) + geom.shape and st.gs.flags.c_contiguous
    g = st.g
    assert g.shape == geom.shape + (d, d)
    assert np.array_equal(g, np.swapaxes(g, -1, -2))
    for p, (i, j) in enumerate(zip(iu, ju)):
        assert np.array_equal(g[..., i, j], st.gs[p]) and np.array_equal(g[..., j, i], st.gs[p])
    assert np.array_equal(et.sym_pairs(g), st.gs) and np.array_equal(et.sym_full(st.gs), g)
    assert np.max(np.abs(g)) == np.max(np.abs(st.gs))
    with pytest.raises(ValueError, match="read-only"):
        st.g[(0,) * d + (0, 1)] = 1.0
    for wrong in (np.zeros(geom.shape + (d, d)), np.zeros((d * (d + 1) // 2 + 1,) + geom.shape),
                  np.zeros(geom.shape + (d * (d + 1) // 2,))):
        with pytest.raises(ValidationError, match="do not match the grid"):
            et.TorusFieldState(geom, wrong, st.b, st.phi, 0.0)


@pytest.mark.parametrize("amplitude", [np.nan, np.inf])
def test_perturbed_state_rejects_nonfinite_fields(geom8, amplitude):
    with pytest.raises(ValidationError, match="must be finite"):
        et.perturbed_state(geom8, 0, amplitude=amplitude)


def test_perturbed_state_rejects_a_perturbation_past_positivity(geom8):
    with pytest.raises(ValidationError, match="perturbation amplitude too large"):
        et.perturbed_state(geom8, 0, amplitude=3.0)


def test_step_underflow_aborts_with_trace(geom8, stopped_short):
    # dt = cfl h^2 lambda_min(g) = 1e-20 h^2 on the flat start: below 1e-14, the run stops at its first step
    tr = et.run_torus_flow(et.flat_state(geom8), et.TorusParams(cfl=1e-20, max_steps=3))
    stopped_short(tr, "step underflow at t = 0.0")
    assert len(tr.t) == 1


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_nonfinite_stage_aborts_with_trace(geom8, slot, stopped_short):
    # a right side that goes NaN is stopped at the stage state it builds, with a note and a row
    def blows_up(fields):
        rates = list(et.torus_rhs(fields))
        rates[slot] = np.full_like(rates[slot], np.nan)
        return tuple(rates)

    tr = et.run_torus_flow(et.perturbed_state(geom8, 2, amplitude=0.05, k=0.5), et.TorusParams(T=0.1), rhs=blows_up)
    stopped_short(tr, "RK4 stage")
    assert "must be finite" in tr.aborted and len(tr.t) == 1 and tr.final_state.t == 0.0


def test_deriv_fourth_order(geom16):
    # derivative of sin(x) along axis 0: error O(h^4)
    x = geom16.grids()[0]
    err16 = np.max(np.abs(et.deriv(geom16, np.sin(x), 0) - np.cos(x)))
    geom32 = et.TorusGeometry(3, 32, 2 * np.pi)
    x32 = geom32.grids()[0]
    err32 = np.max(np.abs(et.deriv(geom32, np.sin(x32), 0) - np.cos(x32)))
    assert 12 <= err16 / err32 <= 20


def _roll_deriv(geom, f, axis):
    """The four-``np.roll`` stencil, summed as ``deriv`` sums it: (8 (f[j+1] - f[j-1]) - f[j+2]) + f[j-2]
    (bitwise reference)."""
    return (
        8.0 * (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis))
        - np.roll(f, -2, axis=axis)
        + np.roll(f, 2, axis=axis)
    ) / (12.0 * geom.h)


@pytest.mark.parametrize("d", [2, 3])
def test_deriv_matches_roll_stencil_bitwise(d, rng):
    # contiguous, Fortran-ordered, strided and reversed inputs, scalar and tensor, along every array axis
    geom = et.TorusGeometry(d, 8)
    g = rng.standard_normal(geom.shape + (d, d))
    inputs = [g, g[..., 0, 0].copy(), g[..., 0, 1], g[..., 1, :], np.asfortranarray(g), np.swapaxes(g, 0, d - 1),
              g[::-1], np.moveaxis(g, -1, 0)]
    for f in inputs:
        for axis in range(f.ndim):
            assert np.array_equal(et.deriv(geom, f, axis), _roll_deriv(geom, f, axis))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("value", [0.1, -3.0, 1e150, 1e-300])
def test_deriv_of_a_constant_is_exactly_zero(d, value):
    # every step of the difference form is exact on a constant, in each of the bitwise test's layouts
    geom = et.TorusGeometry(d, 8)
    g = np.full(geom.shape + (d, d), value)
    inputs = [g, g[..., 0, 0].copy(), g[..., 0, 1], g[..., 1, :], np.asfortranarray(g), np.swapaxes(g, 0, d - 1),
              g[::-1], np.moveaxis(g, -1, 0)]
    for f in inputs:
        for axis in range(f.ndim):
            assert not np.any(et.deriv(geom, f, axis))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [8, 12])
def test_symmetric_pair_geometry_matches_full_tensor(d, n, rng):
    # random SPD fields, rough at the grid scale: Gamma, Rc and the Hessian on pairs against the full-tensor
    # formulas at i <= j, each within 1e-14 of its largest value
    geom = et.TorusGeometry(d, n)
    a = rng.standard_normal(geom.shape + (d, d))
    st = et.TorusFieldState.from_full(geom, a @ np.swapaxes(a, -1, -2) + np.eye(d), 0.0,
                                      0.1 * rng.standard_normal(geom.shape), 0.0)
    fields = et.torus_fields(st)
    iu, ju = np.triu_indices(d)
    ref_gamma = et.christoffel_full(geom, np.moveaxis(st.g, (-2, -1), (0, 1)), fields.ginv)  # (k, i, j) + grid
    pairs = {"gamma": (fields.gamma, ref_gamma[:, iu, ju]),
             "rc": (fields.rc, et.ricci_tensor_full(geom, ref_gamma)[iu, ju]),
             "hessian": (et.hessian(geom, fields.gamma, fields.dphi),
                         et.hessian_full(geom, ref_gamma, et.grad(geom, st.phi))[iu, ju])}
    for name, (x, ref) in pairs.items():
        assert x.shape == ref.shape, name
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref)), name


def test_flux_constant_B(geom8):
    st = et.flat_state(geom8, k=2.0)
    st.b[2] = 0.7  # B_01 = -B_10 = 0.7
    h = et.flux_H(st)
    assert h.shape == geom8.shape
    assert np.max(np.abs(h - 2.0)) <= 1e-14  # constant B contributes nothing: h = k


def test_flux_single_mode(geom16):
    st = et.flat_state(geom16, k=0.0)
    x3 = geom16.grids()[2]
    st.b[2] = np.sin(x3)  # B_01
    h = et.flux_H(st)
    # h = H_012 = d_2 B_01 (+ cyclic terms that vanish)
    assert np.max(np.abs(h - et.deriv(geom16, st.B[..., 0, 1], 2))) <= 1e-14


def test_flux_density_is_H_012_of_dB(geom16):
    # the density against the full 3-form k eps + dB from the exterior derivative
    st = et.perturbed_state(geom16, 5, amplitude=0.3, k=0.7)
    H = et.exterior_derivative(geom16, st.B, 2) + 0.7 * alg.epsilon3()
    assert np.max(np.abs(et.flux_H(st) - H[..., 0, 1, 2])) <= 1e-14


def test_flux_zero_on_t2():
    geom = et.TorusGeometry(2, 8)
    st = et.perturbed_state(geom, 4, amplitude=0.1)
    assert np.array_equal(et.flux_H(st), np.zeros(geom.shape))
    assert not np.any(et.torus_rhs(et.torus_fields(st))[1])


def test_ddB_zero_random(geom16):
    st = et.perturbed_state(geom16, 5, amplitude=0.3)
    ddb = et.exterior_derivative(geom16, et.exterior_derivative(geom16, st.B, 2), 3)
    assert np.max(np.abs(ddb)) <= 1e-13 * (1 + np.max(np.abs(st.B)))


def test_dd_scalar_and_one_form(geom8, rng):
    f = rng.standard_normal(geom8.shape)
    ddf = et.exterior_derivative(geom8, et.exterior_derivative(geom8, f, 0), 1)
    assert np.max(np.abs(ddf)) <= 1e-13 * (1 + np.max(np.abs(f)))
    a_form = rng.standard_normal(geom8.shape + (3,))
    dda = et.exterior_derivative(geom8, et.exterior_derivative(geom8, a_form, 1), 2)
    assert np.max(np.abs(dda)) <= 1e-12 * (1 + np.max(np.abs(a_form)))


def test_grad_div_convention(geom8):
    # the grid axes come last and the derivative index first, and div contracts it again
    gs = et.perturbed_state(geom8, 3, amplitude=0.2).gs
    dg = et.grad(geom8, gs)
    assert dg.shape == (3, 6) + geom8.shape
    for l in range(3):
        assert np.array_equal(dg[l], et.deriv(geom8, gs, l - 3))
    expected = sum(et.deriv(geom8, dg[k], k - 3) for k in range(3))
    assert np.array_equal(et.div(geom8, dg), expected)


def test_exterior_derivative_rejects_wrong_degree(geom8):
    b = np.zeros(geom8.shape + (3, 3))
    for degree in (-1, 1, 3):
        with pytest.raises(ValidationError):
            et.exterior_derivative(geom8, b, degree)


def test_rhs_flat_zero(geom8):
    dg, db, dphi = et.torus_rhs(et.torus_fields(et.flat_state(geom8, 0.0)))
    assert np.max(np.abs(dg)) == 0.0
    assert np.max(np.abs(db)) == 0.0
    assert np.max(np.abs(dphi)) == 0.0


def test_rhs_flux_values(geom8):
    st = et.flat_state(geom8, k=1.5)
    dg, db, dphi = et.torus_rhs(et.torus_fields(st))
    assert np.max(np.abs(dg - 1.5**2 * et.sym_pairs(np.eye(3))[:, None, None, None])) <= 1e-13
    assert np.max(np.abs(db)) <= 1e-13
    assert np.max(np.abs(dphi - 1.5**2 / 2)) <= 1e-13


def test_rhs_isotropic_scaling(geom8):
    st = et.flat_state(geom8, k=1.0)
    st.gs *= 1.7
    dg, _, dphi = et.torus_rhs(et.torus_fields(st))
    diag = dg[0]
    assert np.max(np.abs(dg - diag * et.sym_pairs(np.eye(3))[:, None, None, None])) <= 1e-13
    assert np.max(np.abs(diag - 1.0 / 1.7**2)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3])
def test_inverse_and_det_match_linalg(d, rng):
    # random SPD fields with condition numbers up to ~1e4: agreement to round-off times cond(g)
    q, _ = np.linalg.qr(rng.standard_normal((500, d, d)))
    g = (q * 10.0 ** rng.uniform(-2.0, 2.0, (500, 1, d))) @ np.swapaxes(q, -1, -2)
    ginv, det = et.inverse_and_det(et.sym_pairs(g))
    ginv = np.moveaxis(ginv, (0, 1), (-2, -1))  # g^-1 has its matrix axes first
    cond = np.linalg.cond(g)
    ref_inv, ref_det = np.linalg.inv(g), np.linalg.det(g)
    inv_err = np.max(np.abs(ginv - ref_inv), axis=(-1, -2)) / np.max(np.abs(ref_inv), axis=(-1, -2))
    assert np.all(inv_err <= 1e-14 * cond)
    assert np.all(np.abs(det - ref_det) <= 1e-14 * cond * np.abs(ref_det))
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))  # symmetric bitwise


def _spectral_field(rng, n, d, lo, hi):
    """n symmetric d x d matrices Q diag(lam) Q^T, lam uniform in [lo, hi], Q random orthogonal."""
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    lam = np.sort(rng.uniform(lo, hi, (n, d)), axis=-1)
    return q, lam


def _assemble(q, lam):
    a = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _adversarial_matrices(rng, n, d):
    """Symmetric matrices where the closed form is weakest: equal or nearly equal eigenvalues, a
    near-isotropic spread, diagonal ones and multiples of Id, scales 1e-6 to 1e6 and both signs."""
    q, lam = _spectral_field(rng, n, d, -1.0, 2.0)
    kind = rng.integers(0, 8, n)
    lam[kind == 1, 1] = lam[kind == 1, 0]  # double lowest
    lam[kind == 2] = lam[kind == 2, :1]  # triple (d = 3), or g = c Id rounded through Q
    lam[kind == 3, 1] = lam[kind == 3, 0] * (1.0 + 1e-9)  # nearly double
    lam[kind == 4] = 1.0 + rng.uniform(-1e-7, 1e-7, (np.count_nonzero(kind == 4), d))
    lam[kind == 5, -1] = lam[kind == 5, -2]  # double highest
    a = _assemble(q, lam)
    a[kind == 6] *= np.eye(d)  # diagonal
    a[kind == 7] = lam[kind == 7, :1, None] * np.eye(d)  # c Id exactly
    return a * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1, 1))


@pytest.mark.parametrize("d", [2, 3])
def test_lowest_eig_estimate_error(d):
    # the screen of spd_margin keeps the node of the grid minimum while the estimate errs by less
    # than SCREEN max|g| / 2; ask for five times less than that
    a = _adversarial_matrices(np.random.default_rng(17 + d), 20000, d)
    scale = np.max(np.abs(a), axis=(-1, -2))
    err = np.abs(et.lowest_eig_estimate(et.sym_pairs(a), scale) - np.linalg.eigvalsh(a)[:, 0] / scale)
    assert np.all(err <= 0.1 * et.SCREEN)


@settings(max_examples=300, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), d=hst.sampled_from([2, 3]),
       kind=hst.sampled_from(["random", "planted", "ties", "constant", "double", "triple", "adversarial"]),
       log_scale=hst.floats(-6.0, 6.0))
def test_spd_margin_matches_eigvalsh(seed, d, kind, log_scale):
    # the screened margin is the grid-wide eigvalsh minimum bit for bit, whatever the field
    rng = np.random.default_rng(seed)
    geom = et.TorusGeometry(d, 8)
    n = geom.N**d
    q, lam = _spectral_field(rng, n, d, 1.0, 2.0)
    if kind == "random":
        lam = rng.uniform(-1.0, 2.0, (n, d))
    nodes = rng.choice(n, size=rng.integers(1, 6), replace=False)
    low = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)  # a minimum a hair to a tenth below the rest
    if kind == "planted":
        lam[nodes[0], 0] = low
    elif kind == "ties":  # equal spectra, differently rotated: eigvalsh values apart by round-off
        lam[nodes] = lam[nodes[0]]
        lam[nodes, 0] = low
    elif kind == "constant":
        q[:], lam[:] = q[0], lam[0]
    elif kind == "double":
        lam[nodes, :2] = low
    elif kind == "triple":
        lam[nodes] = low
    g = _adversarial_matrices(rng, n, d) if kind == "adversarial" else _assemble(q, lam) * 10.0**log_scale
    st = et.TorusFieldState.from_full(geom, g.reshape(geom.shape + (d, d)), 0.0, 0.0, 0.0)
    assert st.spd_margin() == float(np.min(np.linalg.eigvalsh(g)))


def test_rhs_anisotropic_flux_closed_form(geom8):
    # constant non-diagonal g, H0 = k eps: dt g = (k^2 / det g) g, dt B = 0, dt phi = k^2 / (2 det g)
    assert checks.anisotropic_flux_residual(geom8, 8) <= 1e-12


def test_rhs_single_mode_B_exact(geom8):
    # one Fourier mode of B: the stencil's symbol gives dt B, dt g and dt phi exactly
    assert checks.single_mode_b_residual(geom8, 9) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("log_scale", [-150, -20, -6, 0, 6, 20, 150])
def test_stage_positivity_check_raises_iff_the_margin_is_below_the_floor(d, log_scale):
    # random SPD fields with eigenvalues in [1, 2] times the scale, and nodes planted with a lowest eigenvalue
    # a hair either side of SPD_FLOOR, alone or with a second one 1e-9 above it, or with the spectrum
    # (-1, -1, 0.1) or (-1, -1, 3) times the scale, where det, m2 > 0 > tr or det, tr > 0 > m2: the cofactor
    # bound decides where it clears SPD_FLOOR, the exact margin elsewhere, and no scale makes either warn
    rng = np.random.default_rng(2000 + 10 * log_scale + d)
    geom = et.TorusGeometry(d, 8)
    n = geom.N**d
    for kind in ("none", "below", "above", "pair below", "pair above", "tr < 0", "m2 < 0"):
        q, lam = _spectral_field(rng, n, d, 1.0, 2.0)
        lam *= 10.0**log_scale
        nodes = rng.choice(n, size=3, replace=False)
        if kind.endswith("< 0"):
            lam[nodes] = np.array([-1.0, -1.0, 0.1 if kind == "tr < 0" else 3.0])[:d] * 10.0**log_scale
        elif kind != "none":
            lam[nodes, 0] = et.SPD_FLOOR * (1.0 - 1e-6 if kind.endswith("below") else 1.0 + 1e-6)
            if kind.startswith("pair"):
                lam[nodes, 1] = lam[nodes, 0] * (1.0 + 1e-9)
        st = et.TorusFieldState.from_full(geom, _assemble(q, lam).reshape(geom.shape + (d, d)), 0.0, 0.0, 0.0)
        margin = st.spd_margin()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                checked = et.positivity_check(st, *et.scaled_cofactors(st.gs))
            except DegenerateMetric:
                checked = "raised"
        assert not caught, (kind, [str(w.message) for w in caught])
        assert (checked == "raised") == (margin < et.SPD_FLOOR), kind
        assert checked in ("raised", None, margin), kind
        if kind == "none" and log_scale >= -6:  # the bound clears: no eigvalsh at all
            assert checked is None


@pytest.mark.parametrize("d", [2, 3])
def test_stage_positivity_check_within_round_off_of_the_floor(d):
    # one node's lowest eigenvalue within 4e-4 SPD_FLOOR of the floor, the rest of the spectrum at 1e4 to 2e4,
    # where eigvalsh errs by about that much: with no round-off allowance the bound clears 10-20 % of these
    # fields while spd_margin reads below the floor
    rng = np.random.default_rng(40 + d)
    geom = et.TorusGeometry(d, 8)
    n = geom.N**d
    for _ in range(60):
        q, lam = _spectral_field(rng, n, d, 1e4, 2e4)
        lam[rng.integers(n), 0] = et.SPD_FLOOR * (1.0 + rng.uniform(-4e-4, 4e-4))
        st = et.TorusFieldState.from_full(geom, _assemble(q, lam).reshape(geom.shape + (d, d)), 0.0, 0.0, 0.0)
        try:
            checked = et.positivity_check(st, *et.scaled_cofactors(st.gs))
        except DegenerateMetric:
            checked = "raised"
        assert (checked == "raised") == (st.spd_margin() < et.SPD_FLOOR)


def test_spd_margin_constant_metric_runs_one_eigvalsh(monkeypatch, geom8):
    # every node of a constant metric ties in the screen; one matrix stands for all of them
    g0 = checks.constant_anisotropic_metric(3)
    g = np.broadcast_to(g0, geom8.shape + (3, 3))
    st = et.TorusFieldState.from_full(geom8, g, 0.0, 0.0, 0.0)
    expected = float(np.min(np.linalg.eigvalsh(g)))
    shapes = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or original(a))
    assert st.spd_margin() == expected
    assert shapes == [(1, 3, 3)]


@pytest.fixture(scope="module")
def sym_state(geom8):
    return et.perturbed_state(geom8, 10, amplitude=0.05, k=0.5)


def test_rhs_commutes_with_translation(sym_state):
    assert checks.symmetry_residual(sym_state, shift=(3, 1, 2)) == 0.0


@pytest.mark.parametrize("perm", [(1, 0, 2), (1, 2, 0), (2, 1, 0)])
def test_rhs_commutes_with_axis_permutation(sym_state, perm):
    assert checks.symmetry_residual(sym_state, perm=perm) <= 1e-12


@pytest.mark.parametrize("signs", [(-1, 1, 1), (1, 1, -1), (-1, -1, -1)])
def test_rhs_commutes_with_reflection(sym_state, signs):
    assert checks.symmetry_residual(sym_state, signs=signs) <= 1e-12


def test_rhs_commutes_with_t2_symmetries():
    geom = et.TorusGeometry(2, 8)
    st = et.perturbed_state(geom, 6, amplitude=0.05)
    assert checks.symmetry_residual(st, shift=(5, 2)) == 0.0
    assert checks.symmetry_residual(st, perm=(1, 0), signs=(1, -1)) <= 1e-12


def test_pullback_is_the_lattice_isometry(geom8):
    # y_a = s_a x_perm[a] + shift_a on the node coordinates, and a tensor slot takes s_a from slot perm[a]
    x = geom8.grids()
    f = np.sin(x[0]) + 2.0 * np.cos(x[1]) + 3.0 * np.sin(2.0 * x[2])
    perm, signs, shift = (2, 0, 1), (-1, 1, 1), (1, 0, 3)
    moved = checks._pullback(f, 3, perm, signs, shift)
    j = (1, 5, 2)
    src = [0, 0, 0]
    for a in range(3):
        src[perm[a]] = signs[a] * (j[a] - shift[a]) % 8
    assert moved[j] == f[tuple(src)]
    v = np.arange(3.0)
    assert np.array_equal(checks._pullback(v, 0, perm, signs, shift), [-2.0, 0.0, 1.0])


def test_div_h_matches_divergence_form():
    # the Gamma terms of div^k H_kij against the Christoffel-free form: 4th order, factor about 16
    assert 8.0 <= checks.div_h_convergence_ratio(11) <= 32.0


def test_diffeomorphism_pullback_converges():
    # a Courant isometry beyond the lattice: the pullback of a flat state by a smooth diffeomorphism
    ratios = checks.diffeomorphism_convergence_ratios(12)
    assert set(ratios) == {"g", "phi", "ricci"}
    assert all(8.0 <= r <= 32.0 for r in ratios.values()), ratios


@pytest.mark.parametrize("n", [8, 16])
def test_b_gauge_leaves_rhs_unchanged(n):
    # B -> B + d beta: the other half of the Courant isometries
    assert checks.b_gauge_residual(et.TorusGeometry(3, n), 13) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(0, 2**16), d=hst.sampled_from([2, 3]), amplitude=hst.floats(0.01, 0.08),
       k=hst.floats(0.0, 1.5), T=hst.floats(0.01, 0.3), max_steps=hst.integers(1, 4))
def test_run_torus_flow_terminal_states(seed, d, amplitude, k, T, max_steps):
    # a run reaches T, or says that it did not; either way the record is whole, B stays antisymmetric
    # bitwise and g symmetric, and lambda never falls on modes the grid resolves (kmax = 1: 8 nodes a period)
    geom = et.TorusGeometry(d, 8)
    st = et.perturbed_state(geom, seed, amplitude=amplitude, k=k if d == 3 else 0.0, kmax=1)
    tr = et.run_torus_flow(st, et.TorusParams(T=T, max_steps=max_steps))
    if tr.aborted is None:
        assert tr.final_state.t == tr.t[-1] and tr.t[-1] == pytest.approx(T, abs=1e-12)
    elif "stalled" in tr.aborted:
        assert tr.final_state.t > tr.t[-1]
    else:
        assert tr.final_state.t == tr.t[-1]
        assert f"max_steps = {max_steps}" in tr.aborted and tr.t[-1] < T and len(tr.t) == max_steps + 1
    assert len({len(column) for column in (tr.t, tr.minR, tr.meanR, tr.lam, tr.spd_margin, tr.g_norm, tr.B_norm,
                                           tr.phi_norm)}) == 1
    fs = tr.final_state
    assert fs.k == st.k
    assert np.array_equal(fs.B, -np.swapaxes(fs.B, -1, -2))
    assert np.max(np.abs(fs.g - np.swapaxes(fs.g, -1, -2))) <= 1e-12 * np.max(np.abs(fs.g))
    assert min(tr.spd_margin) > et.SPD_FLOOR
    assert np.all(np.diff(tr.lam) >= -1e-6 * np.diff(tr.t))


def test_state_arrays_are_c_ordered(geom8):
    st = et.perturbed_state(geom8, 2, amplitude=0.05, k=0.5)
    moved = et.TorusFieldState(geom8, np.asfortranarray(st.gs), np.asfortranarray(st.b), np.asfortranarray(st.phi),
                               st.k)
    assert all(a.flags.c_contiguous for a in (moved.gs, moved.b, moved.phi))
    for x, y in zip(et.torus_rhs(et.torus_fields(st)), et.torus_rhs(et.torus_fields(moved))):
        assert np.array_equal(x, y)


def test_torus_check_suite_passes():
    results = checks.run_torus_checks(N=8)
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    names = {r.name for r in results}
    assert {"torus_anisotropic_flux_closed_form", "torus_single_mode_B_exact", "torus_div_h_divergence_form",
            "torus_translation_commutes", "torus_permutation_commutes", "torus_reflection_commutes",
            "torus_diffeomorphism_g", "torus_diffeomorphism_phi", "torus_diffeomorphism_ricci",
            "torus_b_gauge_invariant", "torus_flux_density_dB"} <= names
    assert len(results) == 22


def test_torus_check_suite_fails_on_planted_abort(monkeypatch):
    # every check read from a run fails when the run stops short, not only those partial data would fail
    def planted(state, *args):
        raise DegenerateMetric(f"planted at t = {state.t!r}")

    monkeypatch.setattr(et, "_rk4_torus", planted)
    failed = {r.name for r in checks.run_torus_checks(N=8) if not r.passed}
    assert failed == {"torus_homogeneous_benchmark_g", "torus_homogeneous_benchmark_minR",
                      "torus_lambda_monotone_benchmark", "torus_lambda_monotone_perturbed",
                      "torus_min_scalar_monotone_perturbed", "torus_spatial_convergence_g"}


def test_rhs_degenerate_metric(geom8):
    st = et.flat_state(geom8, 0.0)
    st.gs *= 1e-9
    with pytest.raises(DegenerateMetric):
        et.torus_fields(st)


def test_generalized_scalar_flat(geom8):
    assert np.max(np.abs(et.generalized_scalar_field(et.torus_fields(et.flat_state(geom8, 0.0))))) == 0.0
    st = et.flat_state(geom8, k=2.0)
    assert np.max(np.abs(et.generalized_scalar_field(et.torus_fields(st)) + 2.0)) <= 1e-13  # -k^2/2


def test_generalized_scalar_dilaton_mode(geom16):
    st = et.flat_state(geom16, 0.0)
    x = geom16.grids()[0]
    eps = 1e-3
    st.phi = eps * np.sin(x)
    gr = et.generalized_scalar_field(et.torus_fields(st))
    # -4 e^phi Lap e^-phi = 4 Lap phi - 4 |grad phi|^2 = -4 eps sin(x) + O(eps^2),
    # up to the O(h^4) stencil truncation of the unit mode
    ref = -4.0 * eps * np.sin(x)
    assert np.max(np.abs(gr - ref)) <= 4.0 * eps * geom16.h**4 + 4.0 * eps**2
    # mean of -4|grad phi|^2 is -2 eps^2: mean-zero at O(eps)
    assert abs(np.mean(gr)) <= 3.0 * eps**2
    assert abs(np.mean(gr) + 2.0 * eps**2) <= 0.1 * eps**2


@pytest.mark.parametrize("state", [
    lambda: et.perturbed_state(et.TorusGeometry(2, 16), 7),
    lambda: et.perturbed_state(et.TorusGeometry(3, 16), 7, k=0.7),
], ids=["T2", "T3"])
def test_generalized_scalar_field_is_conjugated_operator(state):
    # GR = e^phi L e^-phi against its expanded form R - |H|^2/12 - 4 e^phi Lap e^-phi
    fields = et.torus_fields(state())
    phi = fields.state.phi
    gr = et.generalized_scalar_field(fields)
    lap = et.laplace_beltrami(fields.geom, fields.w, fields.wginv, et.grad(fields.geom, np.exp(-phi)))
    ref = fields.potential - 4.0 * np.exp(phi) * lap
    assert np.max(np.abs(gr - ref)) <= 1e-13 * (1.0 + np.max(np.abs(gr)))


def test_ricci_dilaton_regression(geom16):
    st = et.perturbed_state(geom16, 3, amplitude=0.05)
    st.b[:] = 0.0
    full = et.torus_rhs(et.torus_fields(st))
    lean = et.ricci_dilaton_rhs(st)
    for x, y in zip(full, lean):
        assert np.max(np.abs(x - y)) <= 1e-12


def test_run_preserves_symmetry(geom8):
    st = et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5)
    tr = et.run_torus_flow(st, et.TorusParams(T=0.1, cfl=0.2, compute_lambda=False))
    fs = tr.final_state
    assert np.max(np.abs(fs.g - np.swapaxes(fs.g, -1, -2))) <= 1e-12 * np.max(np.abs(fs.g))
    assert np.max(np.abs(fs.B + np.swapaxes(fs.B, -1, -2))) <= 1e-12 * max(1, np.max(np.abs(fs.B)))


@pytest.mark.parametrize("d, n, k, T", [(2, 16, 0.0, 0.25), (3, 8, 0.5, 1.0)])
def test_torus_integrator_is_fourth_order_in_time(d, n, k, T):
    # RK4 with the step recomputed every step and the last one cut to land on T: halving cfl cuts the error at T,
    # against a run at cfl / 8, about 16-fold (17.3 on T^2 and 17.9 on 8^3 here, over 10 and 9 steps at cfl 0.2)
    st = et.perturbed_state(et.TorusGeometry(d, n), 7, amplitude=0.05, k=k, kmax=1)

    def final(cfl):
        tr = et.run_torus_flow(st, et.TorusParams(T=T, cfl=cfl, compute_lambda=False))
        assert tr.aborted is None
        return np.concatenate([f.ravel() for f in (tr.final_state.gs, tr.final_state.b, tr.final_state.phi)])

    ref = final(0.2 / 8)
    factor = np.max(np.abs(final(0.2) - ref)) / np.max(np.abs(final(0.1) - ref))
    assert 8.0 <= factor <= 32.0


def test_homogeneous_benchmark_short(geom8):
    tr = et.run_torus_flow(et.flat_state(geom8, k=1.0), et.TorusParams(T=0.5, cfl=0.2))
    f_exact = (1 + 3 * 0.5) ** (1 / 3)
    gerr = np.max(np.abs(tr.final_state.g / f_exact - np.broadcast_to(np.eye(3), tr.final_state.g.shape)))
    assert gerr <= 1e-5
    ts = np.array(tr.t)
    assert np.max(np.abs(np.array(tr.minR) + 1 / (2 * (1 + 3 * ts)))) <= 1e-5
    lam = np.array(tr.lam)
    assert np.all(np.diff(lam) >= -1e-6 * np.diff(ts))


def test_lambda_values(geom16):
    assert abs(et.lambda_torus(et.torus_fields(et.flat_state(geom16, 0.0)))) <= 1e-10
    assert et.lambda_torus(et.torus_fields(et.flat_state(geom16, k=1.0))) == pytest.approx(-0.5, abs=1e-10)


def test_lambda_dilaton_localization(geom16):
    # potential well from a strong flux bump localizes the ground state; the
    # minimum must not exceed the potential minimum and lambda <= min V
    st = et.flat_state(geom16, 0.0)
    x = geom16.grids()[0]
    st.phi = 0.3 * np.sin(x)
    fields = et.torus_fields(st)
    lam, u = et.lambda_torus(fields, return_vector=True)
    assert np.all(u > 0)
    gr = et.generalized_scalar_field(fields)
    # direct Rayleigh value of u = e^-phi normalized must upper-bound lambda
    u0 = np.exp(-st.phi)
    u0 /= np.sqrt(np.sum(fields.dv * u0 * u0))
    upper = float(np.sum(fields.dv * gr * u0 * u0))
    assert lam <= upper + 1e-12


def test_eh_density_identity(geom16):
    st = et.perturbed_state(geom16, 21, amplitude=0.08, k=0.7)
    assert et.eh_density_identity_residual(st) <= 1e-12


_WRONG_LAPLACIANS = {
    "scaled": lambda lap: lambda geom, w, wginv, df: 1.1 * lap(geom, w, wginv, df),
    "shifted": lambda lap: lambda geom, w, wginv, df: lap(geom, w, wginv, df) + 0.3 * df[0],
    "non_divergence": lambda lap: lambda geom, w, wginv, df: np.einsum("ij...,ij...->...", wginv / w,
                                                                       et.grad(geom, df)),
}


@pytest.mark.parametrize("mutant", list(_WRONG_LAPLACIANS))
def test_eh_density_identity_sees_a_wrong_laplacian(monkeypatch, geom16, mutant):
    # GR reads the Laplacian and the right side reads grad u and g^-1, so the two sides part when it is wrong
    st = et.perturbed_state(geom16, 21, amplitude=0.08, k=0.7)
    monkeypatch.setattr(et, "laplace_beltrami", _WRONG_LAPLACIANS[mutant](et.laplace_beltrami))
    assert et.eh_density_identity_residual(st) > 1e-4


@pytest.mark.parametrize("mutant", list(_WRONG_LAPLACIANS))
def test_torus_checks_see_a_wrong_laplacian(monkeypatch, mutant):
    # torus_rhs reads the Laplacian for dt phi: its regression against the oracle, which states its own, and the
    # diffeomorphism band on dt phi fail beside the EH identity
    monkeypatch.setattr(et, "laplace_beltrami", _WRONG_LAPLACIANS[mutant](et.laplace_beltrami))
    names = ("torus_eh_density_identity", "torus_ricci_dilaton_regression", "torus_diffeomorphism_phi")
    results = checks._aggregate({name: checks.TORUS_CHECKS[name] for name in names}, [checks._Runs(0)])
    assert [r.name for r in results if not r.passed] == list(names)


def test_t2_flow_decays():
    geom = et.TorusGeometry(2, 16, 2 * np.pi)
    st = et.perturbed_state(geom, 4, amplitude=0.05)
    tr = et.run_torus_flow(st, et.TorusParams(T=0.5, cfl=0.2))
    assert tr.aborted is None and np.any(st.b)
    assert np.array_equal(tr.final_state.b, st.b)  # H = 0 on T^2: b is inert
    assert tr.phi_norm[-1] < tr.phi_norm[0]
    lam = np.array(tr.lam)
    ts = np.array(tr.t)
    assert np.all(np.diff(lam) >= -1e-6 * np.diff(ts))
    assert np.all(np.diff(np.array(tr.minR)) >= -1e-6 * np.diff(ts))


def test_field_dump_roundtrip(tmp_path):
    # the dump holds the full g and B derived from gs and b; a state rebuilt from it writes the same bytes
    for d in (2, 3):
        geom = et.TorusGeometry(d, 8)
        st = et.perturbed_state(geom, 2, amplitude=0.05, k=1.0 if d == 3 else 0.0)
        path = tmp_path / f"fields{d}.grfd"
        et.write_field_dump(st, path)
        data = et.read_field_dump(path)
        assert data["d"] == d and data["N"] == 8
        assert np.array_equal(data["g"], st.g)
        assert np.array_equal(data["B"], st.B)
        assert np.array_equal(data["phi"], st.phi)
        rebuilt = et.TorusFieldState.from_full(geom, data["g"], data["B"], data["phi"], st.k)
        et.write_field_dump(rebuilt, tmp_path / "again.grfd")
        assert (tmp_path / "again.grfd").read_bytes() == path.read_bytes()


def test_field_dump_format_pinned(tmp_path):
    # the dump's bytes are its format, whatever layout the state keeps inside: g and B full, grid first and the
    # matrix last; a state rebuilt from the dump holds the same bits
    st = et.perturbed_state(et.TorusGeometry(3, 8), 3, k=0.5)
    path = tmp_path / "pinned.grfd"
    et.write_field_dump(st, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "50ee8f8db9ae5c488fba754e53b3feac7dc125d7bfc725335eba548600c7c35f")
    data = et.read_field_dump(path)
    rebuilt = et.TorusFieldState.from_full(st.geom, data["g"], data["B"], data["phi"], st.k)
    for x, y in ((rebuilt.gs, st.gs), (rebuilt.b, st.b), (rebuilt.phi, st.phi)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _dump_bytes(tmp_path) -> bytes:
    path = tmp_path / "fields.grfd"
    et.write_field_dump(et.perturbed_state(et.TorusGeometry(3, 8), 2, amplitude=0.05, k=1.0), path)
    return path.read_bytes()


def test_field_dump_truncated_rejected(tmp_path):
    # a dump cut anywhere, in its header or its payload, is a validation error, not a numpy one
    data = _dump_bytes(tmp_path)
    for cut in (3, 10, 20, 28, len(data) // 2, len(data) - 1):
        (tmp_path / "cut.grfd").write_bytes(data[:cut])
        with pytest.raises(ValidationError):
            et.read_field_dump(tmp_path / "cut.grfd")


@pytest.mark.parametrize("slot, value", [(0, 2), (1, 4), (1, 1), (2, 7), (2, 4), (3, 2)])
def test_field_dump_bad_header_rejected(tmp_path, slot, value):
    # header (version, d, N, field count): d in {2, 3}, N even and >= 8, 3 fields, version 1
    data = bytearray(_dump_bytes(tmp_path))
    data[4 + 4 * slot:8 + 4 * slot] = np.array(value, dtype="<u4").tobytes()
    (tmp_path / "bad.grfd").write_bytes(bytes(data))
    with pytest.raises(ValidationError):
        et.read_field_dump(tmp_path / "bad.grfd")


@pytest.mark.parametrize("extra", [1, 8, 64])
def test_field_dump_trailing_bytes_rejected(tmp_path, extra):
    (tmp_path / "long.grfd").write_bytes(_dump_bytes(tmp_path) + b"\0" * extra)
    with pytest.raises(ValidationError, match="bytes"):
        et.read_field_dump(tmp_path / "long.grfd")


def test_degenerate_abort_carries_trace(geom8, stopped_short):
    # g near degeneracy (min eigenvalue 7.6e-8) loses positivity within the first step: the trace is
    # returned; g below SPD_FLOOR from the start leaves no partial trace and raises
    st = et.perturbed_state(geom8, 1, amplitude=0.05)
    st.gs *= 1e-7 / np.max(np.abs(st.gs))
    tr = et.run_torus_flow(st, et.TorusParams(T=0.1, cfl=0.2))
    stopped_short(tr, "metric lost positivity")
    assert len(tr.t) == 1 and tr.final_state.t == 0.0
    st.gs *= 0.05
    with pytest.raises(DegenerateMetric, match="lost positivity"):
        et.run_torus_flow(st, et.TorusParams(T=0.1, cfl=0.2))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_geometry_built_once_per_state(monkeypatch, geom8):
    # one record per accepted state (trace row, lambda, step size, k1) plus one
    # per later RK4 stage: 4 per step and 1 for the initial state; the exact
    # margin only for records, where the stages' cofactor bound clears SPD_FLOOR
    gammas = _count_calls(monkeypatch, et, "christoffel")
    margins = _count_calls(monkeypatch, et.TorusFieldState, "spd_margin")
    tr = et.run_torus_flow(et.flat_state(geom8, k=1.0), et.TorusParams(T=0.3, cfl=0.2))
    n = len(tr.t) - 1
    assert n >= 2 and tr.aborted is None
    assert len(gammas) == 4 * n + 1
    assert len(margins) == n + 1


def test_eh_density_builds_one_record(monkeypatch, geom8):
    st = et.perturbed_state(geom8, 21, amplitude=0.08, k=0.7)
    records = _count_calls(monkeypatch, et, "torus_fields")
    gammas = _count_calls(monkeypatch, et, "christoffel")
    assert et.eh_density_identity_residual(st) <= 1e-12
    assert len(records) == 1 and len(gammas) == 1


@pytest.mark.parametrize("d", [2, 3])
def test_one_laplacian_per_rhs_and_scalar_field(monkeypatch, d):
    # the phi-Laplacian of torus_rhs and the Laplacian of GR = e^phi L e^-phi are one laplace_beltrami call each;
    # the H-free oracle states its own Laplacian and calls none
    fields = et.torus_fields(et.perturbed_state(et.TorusGeometry(d, 8), 5, amplitude=0.05, k=0.5 if d == 3 else 0.0))
    laplacians = _count_calls(monkeypatch, et, "laplace_beltrami")
    for read in (et.torus_rhs, et.generalized_scalar_field):
        del laplacians[:]
        read(fields)
        assert len(laplacians) == 1, read.__name__
    del laplacians[:]
    et.ricci_dilaton_rhs(fields.state)
    assert not laplacians


@pytest.mark.parametrize("d", [2, 3])
def test_measure_sums_to_the_volume(d):
    # dV = sqrt(det g) h^d: on g = c Id the nodes sum to c^(d/2) L^d
    geom = et.TorusGeometry(d, 8, 3.0)
    fields = et.torus_fields(et.TorusFieldState.from_full(geom, 4.0 * np.eye(d), 0.0, 0.0, 0.0))
    assert np.sum(fields.dv) == pytest.approx(2.0**d * 3.0**d, rel=1e-14)


@pytest.mark.parametrize("max_steps", [0, -3, float("nan")])
def test_torus_params_reject_empty_step_budget(max_steps):
    with pytest.raises(ValidationError, match="max_steps"):
        et.TorusParams(T=1.0, max_steps=max_steps)


@pytest.mark.parametrize("bad", [{"T": 0.0}, {"T": float("nan")}, {"cfl": -0.1}, {"cfl": float("nan")}])
def test_torus_params_reject_nonpositive_or_nan_time_and_cfl(bad):
    [(name, value)] = bad.items()
    with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got {value!r}$"):
        et.TorusParams(**bad)


@pytest.mark.parametrize("bad", [{"T": float("inf")}, {"cfl": float("inf")}])
def test_torus_params_reject_infinite_time_and_cfl(bad):
    [(name, value)] = bad.items()
    with pytest.raises(ValidationError, match=f"^{name} must be positive and finite, got inf$"):
        et.TorusParams(**bad)


def test_max_steps_marks_abort(geom8, stopped_short):
    tr = et.run_torus_flow(et.flat_state(geom8), et.TorusParams(T=1.0, cfl=0.2, max_steps=2))
    stopped_short(tr, "max_steps = 2")
    assert len(tr.t) == 3 and tr.t[-1] < 1.0
    assert repr(tr.t[-1]) in tr.aborted


@pytest.mark.parametrize("d", [2, 3])
def test_laplacian_coefficient_matches_linalg(d, rng):
    # the record's w g^-1, shared by the phi-Laplacian, the scalar field and lambda's operator, against
    # sqrt(det g) g^-1 from np.linalg of the full g; k = 0.5 on T^3 (three-forms vanish on T^2)
    geom = et.TorusGeometry(d, 8)
    st = et.perturbed_state(geom, 5, amplitude=0.1, k=0.5 if d == 3 else 0.0)
    fields = et.torus_fields(st)
    w = np.sqrt(np.linalg.det(st.g))
    ginv = np.moveaxis(np.linalg.inv(st.g), (-2, -1), (0, 1))
    assert np.max(np.abs(fields.wginv - w * ginv)) <= 1e-13 * np.max(np.abs(w * ginv))
    for f in (np.exp(-st.phi), rng.standard_normal(geom.shape)):
        ref = et.div(geom, w * np.einsum("ij...,j...->i...", ginv, et.grad(geom, f))) / w
        lap = et.laplace_beltrami(geom, fields.w, fields.wginv, et.grad(geom, f))
        assert np.max(np.abs(lap - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_lambda_operator_call_is_one_laplacian(monkeypatch, geom8):
    # every operator call LOBPCG makes inside lambda_torus is exactly one laplace_beltrami call, so counting
    # those calls counts lambda's operator applications
    fields = et.torus_fields(et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5))
    laplacians = _count_calls(monkeypatch, et, "laplace_beltrami")
    per_call, inside = [], []
    original = scipy.sparse.linalg.lobpcg

    def counted(operator, x, **kwargs):
        def counted_operator(v):
            before = len(laplacians)
            out = operator(v)
            per_call.append(len(laplacians) - before)
            return out

        before = len(laplacians)
        result = original(counted_operator, x, **kwargs)
        inside.append(len(laplacians) - before)
        return result

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", counted)
    _, u = et.lambda_torus(fields, return_vector=True)
    assert len(inside) == 1 and len(per_call) > 1
    assert set(per_call) == {1} and inside[0] == len(per_call)
    # outside LOBPCG a solve applies L once, to rate its start: lambda and the residual are LOBPCG's own
    assert len(laplacians) == inside[0] + 1
    # a warm start that already meets the bound costs one application and no solve
    del laplacians[:]
    et.lambda_torus(fields, u0=u)
    assert len(laplacians) == 1 and len(inside) == 1


def test_flat_inverse_inverts_flat_operator(rng):
    # the preconditioner's symbol is exactly that of -4 Lap + 1 built from deriv's stencil
    for d in (2, 3):
        geom = et.TorusGeometry(d, 8)
        fields = et.torus_fields(et.flat_state(geom))
        x = rng.standard_normal(geom.shape)
        y = et._flat_inverse(geom)((et.dirichlet_operator(fields, x) + x).reshape(-1, 1))
        assert y.shape == (x.size, 1)
        assert np.max(np.abs(y[:, 0] - x.ravel())) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_flat_operator_annihilates_nyquist_modes(d):
    # deriv's symbol (8 sin t - sin 2t) / 6h vanishes at t = pi, so on a flat state lambda's operator is exactly 0
    # on the 2^d Nyquist modes, which span the indicators of the 2 x 2 (x 2) sublattices
    geom = et.TorusGeometry(d, 8)
    fields = et.torus_fields(et.flat_state(geom))
    nodes = np.indices(geom.shape)
    for m in np.ndindex(*(2,) * d):
        chi = (-1.0) ** np.tensordot(m, nodes, axes=1)
        assert np.array_equal(et.dirichlet_operator(fields, chi), np.zeros(geom.shape)), m


@pytest.mark.xfail(strict=True, reason=(
    "lambda's minimizer becomes a grid mode on one sublattice: deriv's symbol vanishes at the Nyquist "
    "frequency, so once the smooth lambda rises above the near-kernel of those modes, lambda follows them "
    "down (here from -2.44e-5 at t 0.56 to -3.58e-5 at T 1, at up to 4.1e-5 per unit time)"))
def test_lambda_does_not_fall_on_t2_perturbed_run():
    # grf torus {"d": 2, "N": 16, "init": "perturbed", "T": 1.0} --seed 7, a start that grf accepts (N = 8 kmax):
    # criterion 9's bound of 1e-6 per unit time on lambda's fall
    tr = et.run_torus_flow(et.perturbed_state(et.TorusGeometry(2, 16), 7), et.TorusParams(T=1.0))
    assert tr.aborted is None
    assert np.all(np.diff(tr.lam) >= -1e-6 * np.diff(tr.t))


def _seed15_state(**params):
    tr = et.run_torus_flow(et.perturbed_state(et.TorusGeometry(3, 8), 15, amplitude=0.05, k=0.5),
                           et.TorusParams(T=0.25, compute_lambda=False, **params))
    return tr.final_state


_ORACLE_STATES = {
    "2": lambda: et.perturbed_state(et.TorusGeometry(2, 8), 11, amplitude=0.05),
    "3": lambda: et.perturbed_state(et.TorusGeometry(3, 8), 11, amplitude=0.05, k=0.5),
    # the seed-15 run's lowest eigenvalues cluster between one-sublattice modes, with a gap of 1.2e-4 after the
    # first step and 7.9e-6 at T 0.25: a solve that stops at a neighbour inside the cluster fails here
    "seed 15 first step": lambda: _seed15_state(max_steps=1),
    "seed 15 T 0.25": _seed15_state,
}


@pytest.mark.parametrize("case", list(_ORACLE_STATES))
def test_lambda_matches_dense_oracle(case):
    # W L assembled column by column (64 and 512 nodes), then a dense generalized eigh
    fields = et.torus_fields(_ORACLE_STATES[case]())
    wts = fields.dv
    eye = np.eye(wts.size)
    wl = np.stack([(wts * et.dirichlet_operator(fields, e.reshape(wts.shape))).ravel() for e in eye], axis=1)
    assert np.max(np.abs(wl - wl.T)) <= 1e-12 * np.max(np.abs(wl))  # L is W-self-adjoint
    ref = scipy.linalg.eigh(0.5 * (wl + wl.T), np.diag(wts.ravel()), eigvals_only=True, subset_by_index=[0, 0])[0]
    lam = et.lambda_torus(fields)
    assert abs(lam - ref) <= 1e-9 * abs(ref)


def test_lambda_residual_bound_and_warm_start(monkeypatch, geom8):
    fields = et.torus_fields(et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5))
    lam, u = et.lambda_torus(fields, return_vector=True)
    wts = fields.dv
    lu = et.dirichlet_operator(fields, u)
    r = lu - lam * u
    assert np.sqrt(np.sum(wts * r * r)) <= et.LAMBDA_RESIDUAL_TOL * (1 + abs(lam))
    assert abs(np.sum(wts * u * u) - 1.0) <= 1e-12 and np.sum(wts * u) > 0
    # lambda is the Rayleigh quotient of the u returned with it: LOBPCG ends with a Rayleigh-Ritz step on it
    assert abs(lam - np.sum(wts * u * lu)) <= 1e-12 * abs(lam)
    # a start that already meets the bound is returned without a solve
    solves = _count_calls(monkeypatch, scipy.sparse.linalg, "lobpcg")
    lam_warm, u_warm = et.lambda_torus(fields, u0=-3.0 * u, return_vector=True)
    assert solves == []
    assert lam_warm == pytest.approx(lam, abs=1e-12) and np.max(np.abs(u_warm - u)) <= 1e-12


def _lobpcg_warnings(monkeypatch):
    """Per lobpcg call, the warnings it raises inside lambda_torus, which keeps them from the caller."""
    seen = []
    original = scipy.sparse.linalg.lobpcg

    def recorded(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = original(*args, **kwargs)
        seen.append([str(w.message) for w in caught])
        return result

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", recorded)
    return seen


def test_lambda_scales_with_metric(monkeypatch, geom8):
    # with H = 0, lambda(c g) = lambda(g) / c on the grid too; lobpcg's tol must follow |lambda|, or it
    # runs out of iterations short of its tol and says so
    lobpcg_warnings = _lobpcg_warnings(monkeypatch)
    st = et.perturbed_state(geom8, 1, amplitude=0.05)
    st.b[:] = 0.0
    lam = et.lambda_torus(et.torus_fields(st))
    for c in (1e-3, 1e-7):
        shrunk = st.copy()
        shrunk.gs *= c
        assert et.lambda_torus(et.torus_fields(shrunk)) * c == pytest.approx(lam, rel=1e-8)
    assert lobpcg_warnings and not any(lobpcg_warnings)


@pytest.mark.filterwarnings("error")
def test_lambda_scales_with_the_period():
    # lambda L^2 depends only on the shape; the solver scales the period into [4, 8) by a power of two, so tiny
    # periods neither stall on a mis-scaled preconditioner (1e-20, 1e-40) nor overflow its products (1e-100)
    def scaled(period):
        fields = et.torus_fields(et.perturbed_state(et.TorusGeometry(3, 8, period), 0, kmax=1))
        return et.lambda_torus(fields) * period * period

    ref = scaled(1.0)
    assert [scaled(period) for period in (1e-20, 1e-40, 1e-100)] == pytest.approx([ref] * 3, rel=1e-10)


@pytest.mark.filterwarnings("error")  # lobpcg's notes on a missed tol stay inside lambda_torus
def test_lambda_stall_reports_residual(monkeypatch, geom8):
    monkeypatch.setattr(et, "LAMBDA_MAX_ITER", 1)
    fields = et.torus_fields(et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5))
    with pytest.raises(EigensolverStalled, match="weighted residual"):
        et.lambda_torus(fields)


@pytest.mark.filterwarnings("error")
def test_lambda_stall_on_both_starts_raises(monkeypatch, geom8):
    # a warm start that misses the bound is retried once from the constant, and no more
    monkeypatch.setattr(et, "LAMBDA_MAX_ITER", 1)
    fields = et.torus_fields(et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5))
    solves = _count_calls(monkeypatch, scipy.sparse.linalg, "lobpcg")
    u0 = np.random.default_rng(3).uniform(0.5, 1.5, geom8.shape)
    with pytest.raises(EigensolverStalled, match="weighted residual"):
        et.lambda_torus(fields, u0=u0)
    assert len(solves) == 2


@pytest.mark.filterwarnings("error")
def test_lambda_warm_start_stall_retried_from_constant():
    # the lowest eigenvalues cluster here (gap 1.2e-4): from the previous record's eigenvector LOBPCG
    # stalls at the first stepped state, from the constant it converges
    tr = et.run_torus_flow(et.perturbed_state(et.TorusGeometry(3, 8), 15, amplitude=0.05, k=0.5),
                           et.TorusParams(T=0.25))
    assert tr.aborted is None and tr.t[-1] == pytest.approx(0.25)
    assert np.all(np.diff(tr.lam) >= 0.0)


def test_lambda_stall_keeps_partial_trace(monkeypatch, geom8, stopped_short):
    solve = et.lambda_torus
    calls = []

    def stalls_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise EigensolverStalled("lambda solver stalled at weighted residual 1.000e-03")
        return solve(*args, **kwargs)

    monkeypatch.setattr(et, "lambda_torus", stalls_second)
    tr = et.run_torus_flow(et.flat_state(geom8, k=1.0), et.TorusParams(T=0.3, cfl=0.2))
    stopped_short(tr, "stalled")
    assert len(tr.t) == 1  # no half-written row
    assert tr.final_state.t > tr.t[-1]


def test_small_perturbed_grid_reaches_T(geom8):
    # an 8^3 input that takes about 100 LOBPCG iterations from the constant start
    tr = et.run_torus_flow(et.perturbed_state(geom8, 9, amplitude=0.05, k=0.5), et.TorusParams(T=0.3))
    assert tr.aborted is None and tr.t[-1] == pytest.approx(0.3)
    assert np.all(np.diff(tr.lam) >= -1e-6 * np.diff(tr.t))
