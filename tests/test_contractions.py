"""Every frame and bending contraction is one matmul per point, and every
operator is its matrix in the orthonormal frame; here each is checked
against the coordinate route it replaced (kept in ``oracles``: einsum and
broadcast contractions, with G^{-1}, A, Gamma and d_l G from solves against
G), through M_hat = C^T M C^{-T}, on random jet stacks with extra leading
axes, for d = 2, 4 and 6.  A rewrite that only reshapes a broadcast
product must agree bitwise.  The frame routes are different sums, with no
G^{-1}, so each is checked per point within 2 d eps kappa^2 of the
reference's largest entry there, kappa = ||C||_F ||C^{-1}||_F >=
cond(f_*): the rounding of the reference's solves against G.  The
variation route to B, a frame contraction that replaced a broadcast one,
is also checked bitwise against its broadcast form, and the Codazzi
derivative, read in the frame, against its broadcast coordinate form
carried to the frame."""

import itertools

import numpy as np
import pytest

import minkaehler.bending as bending
from minkaehler.bending import (
    B_by_BAT,
    B_by_formula,
    B_by_variation,
    B_with_codazzi_derivative,
    Variation,
    fundamental_equation_residual,
    tangential_covariant_derivative,
)
from minkaehler.charts import Jet2
from minkaehler.geometry import (
    christoffel,
    covariant_field_derivative,
    laplace_beltrami,
    point_frame,
)

from oracles import (
    B_by_BAT_coord,
    B_by_formula_coord,
    B_by_variation_broadcast,
    B_by_variation_coord,
    b_form_coord,
    christoffel_coord,
    codazzi_columns,
    codazzi_coord,
    codazzi_lowered,
    covariant_field_derivative_broadcast,
    covariant_field_derivative_coord,
    fundamental_equation_residual_coord,
    in_frame,
    in_orthonormal_columns,
    laplace_beltrami_coord,
    metric_derivative,
    second_form_broadcast,
    tangential_covariant_derivative_coord,
)

EPS = np.finfo(np.float64).eps
LEADS = [(7,), (2, 3, 5)]


def _symmetric(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` averaged over the permutations of its n axes before the last."""
    axes = range(a.ndim - n - 1, a.ndim - 1)
    lead = tuple(range(a.ndim - n - 1))
    perms = list(itertools.permutations(axes))
    return sum(np.transpose(a, lead + p + (a.ndim - 1,)) for p in perms) / len(perms)


def _jet(rng, coords, d: int) -> Jet2:
    lead = coords.shape[:-1]
    c = d + 1
    d1 = np.eye(d, c) + 0.3 * rng.standard_normal(lead + (d, c))
    d2 = _symmetric(rng.standard_normal(lead + (d, d, c)), 2)
    return Jet2(coords, rng.standard_normal(lead + (c,)), d1, d2)


@pytest.fixture(params=[(d, lead) for d in (2, 4, 6) for lead in LEADS], ids=lambda p: f"d{p[0]}-{p[1]}")
def field(request):
    """A random field along a random chart on one stack of points: the
    chart's checked frame and the field's 2-jet."""
    d, lead = request.param
    rng = np.random.default_rng(1000 * d + len(lead))
    coords = rng.standard_normal(lead + (d,))
    return Variation(point_frame(_jet(rng, coords, d)), _jet(rng, coords, d))


def assert_within(got, ref, frame, axes: int = 2, scale=None):
    """|got - ref| <= 2 d eps kappa^2 scale per point, shape for shape,
    with the scale max |ref| there unless given; the last ``axes`` axes
    are a point's entries."""
    assert got.shape == ref.shape
    per_point = tuple(range(-axes, 0))
    kappa2 = (frame.chol**2).sum(axis=(-2, -1)) * (frame.chol_inv**2).sum(axis=(-2, -1))
    if scale is None:
        scale = np.abs(ref).max(axis=per_point, initial=0.0)
    bound = 2 * frame.d * EPS * kappa2 * scale
    np.testing.assert_array_less(np.abs(got - ref).max(axis=per_point, initial=0.0), bound + 1e-300)


def test_second_form_is_bitwise(field):
    frame = field.frame
    np.testing.assert_array_equal(frame.second_form, second_form_broadcast(frame.jet, frame.normal))


def test_christoffel(field):
    frame = field.frame
    got = christoffel(frame.jet, frame.tangent_rows)
    np.testing.assert_array_equal(got, frame.christoffel_hat)
    # Gamma_hat[k, i, j] = (C^T Gamma_ij)_k
    ref = np.einsum("...qk,...qij->...kij", frame.chol, christoffel_coord(frame))
    assert_within(got, ref, frame, 3)


def test_laplace_beltrami(field):
    frame = field.frame
    rng = np.random.default_rng(5)
    grad = rng.standard_normal(frame.jet.d1.shape[:-1])
    hess = _symmetric(rng.standard_normal(frame.jet.d2.shape[:-1] + (1,)), 2)[..., 0]
    got = laplace_beltrami(frame, grad, hess)
    assert_within(got[..., None], laplace_beltrami_coord(frame, grad, hess)[..., None], frame, 1)


def _random_form(frame, seed: int) -> tuple:
    """A random symmetric form b on the frame's points and a random d_i b_jk,
    symmetric in (j, k)."""
    rng = np.random.default_rng(seed)
    form = _symmetric(rng.standard_normal(frame.metric.shape + (1,)), 2)[..., 0]
    dform = _symmetric(rng.standard_normal(frame.jet.d2.shape[:-1] + (frame.d, 1)), 2)[..., 0]
    return form, dform


def _assert_codazzi_within(cols, ref, frame):
    """The Codazzi columns ``cols[0]`` against the reference ``ref``, a
    lowered D[..., i, j, k] carried to the frame, per point within 2 d eps
    kappa^2 of the largest entry of either term, whose antisymmetrization
    may cancel."""
    kappa2 = (frame.chol**2).sum(axis=(-2, -1)) * (frame.chol_inv**2).sum(axis=(-2, -1))
    bound = 2 * frame.d * EPS * kappa2 * np.abs(cols[1:]).max(axis=(0, -2, -1))
    np.testing.assert_array_less(np.abs(cols[0] - codazzi_columns(frame, ref)).max(axis=(-2, -1)), bound)


def test_covariant_field_derivative_is_bitwise(field):
    # the frame columns against the broadcast coordinate route, and a
    # constant form and derivative that broadcast, as the codazzi_b
    # control's derivative does, bit for bit as the same inputs spelled out
    # at every point
    frame = field.frame
    form, dform = _random_form(frame, 6)
    cols = covariant_field_derivative(frame, form, dform)
    _assert_codazzi_within(cols, covariant_field_derivative_broadcast(frame, form, dform), frame)
    # the first term is d_i b_jk, read as D is
    assert_within(cols[1], codazzi_columns(frame, dform), frame)
    form = form[(0,) * (form.ndim - 2)]
    cols = covariant_field_derivative(frame, form, 0.0)
    _assert_codazzi_within(cols, covariant_field_derivative_broadcast(frame, form, 0.0), frame)
    spelled = np.broadcast_to(form, frame.metric.shape), np.zeros(frame.christoffel_hat.shape)
    np.testing.assert_array_equal(cols, covariant_field_derivative(frame, *spelled))


def test_covariant_field_derivative_matches_the_coordinate_route(field):
    # the Codazzi derivative of a random symmetric form b against the
    # covariant derivative of the operator S = G^{-1} b, d_i S = G^{-1}
    # (d_i b - d_i G S), antisymmetrized and lowered
    frame = field.frame
    form, dform = _random_form(frame, 6)
    S = np.linalg.solve(frame.metric, form)
    dS = np.linalg.solve(frame.metric[..., None, :, :], dform - metric_derivative(frame.jet) @ S[..., None, :, :])
    ref = codazzi_lowered(frame, covariant_field_derivative_coord(christoffel_coord(frame), S, dS))
    _assert_codazzi_within(covariant_field_derivative(frame, form, dform), ref, frame)


def test_B_by_formula(field):
    assert_within(B_by_formula(field), in_frame(field.frame, B_by_formula_coord(field)), field.frame)


def test_B_by_variation_is_bitwise(field):
    np.testing.assert_array_equal(B_by_variation(field), B_by_variation_broadcast(field))


@pytest.mark.parametrize(
    "route, ref",
    [(B_by_formula, B_by_formula_coord), (B_by_variation, B_by_variation_coord), (B_by_BAT, B_by_BAT_coord)],
    ids=["formula", "variation", "bat"],
)
def test_B_routes_match_the_coordinate_routes(field, route, ref):
    assert_within(route(field), in_frame(field.frame, ref(field)), field.frame)


def test_tangential_covariant_derivative(field):
    # the orthonormal-frame route against the einsum route through d_i T_*
    # and the Christoffels: a different sum, whose G^{-1} carries eps
    # cond(f_*)^2, so per point within 2 d eps kappa^2 of the largest of the
    # three terms, kappa = ||C||_F ||C^{-1}||_F >= cond(f_*)
    frame = field.frame
    cols = tangential_covariant_derivative(field)
    ref = in_orthonormal_columns(frame, tangential_covariant_derivative_coord(field))
    kappa2 = (frame.chol**2).sum(axis=(-2, -1)) * (frame.chol_inv**2).sum(axis=(-2, -1))
    scale = np.abs(cols[1:]).max(axis=(0, -2, -1))
    bound = 2 * frame.d * EPS * kappa2 * scale
    np.testing.assert_array_less(np.abs(cols[0] - ref).max(axis=(-2, -1)), bound)


def test_B_with_derivative(field):
    # the B form against the coordinate one, and its Codazzi derivative
    # against the route through sigma, d_l sigma and d_l G
    frame = field.frame
    form, dform = B_with_codazzi_derivative(field)
    assert_within(form, b_form_coord(field), frame)
    _assert_codazzi_within(covariant_field_derivative(frame, form, dform), codazzi_coord(field), frame)


def test_fundamental_equation_residual(field):
    # a ratio whose terms are of size 1, however far the sum cancels
    got = fundamental_equation_residual(field)
    assert_within(got[..., None], fundamental_equation_residual_coord(field)[..., None], field.frame, 1, 1.0)


def test_fundamental_equation_residual_is_the_same_in_point_blocks(field, monkeypatch):
    # blocks of 7 points split the 30-point stack 7 + 7 + 7 + 7 + 2 and give
    # the bytes of the whole stack in one block
    whole = fundamental_equation_residual(field)
    monkeypatch.setattr(bending, "_WEDGE_BLOCK", 7)
    np.testing.assert_array_equal(fundamental_equation_residual(field), whole)
