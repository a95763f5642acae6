"""Every frame and bending contraction is one matmul per point; here each is
checked against the ``einsum`` or broadcast form it replaced (kept in
``oracles``), on random jet stacks with extra leading axes, for d = 2, 4
and 6.  A rewrite that only reshapes a broadcast product must agree
bitwise; one that reorders a sum, within 2 d eps of the reference's
largest entry: 4 eps at d = 2, and more for the longer sums of larger d,
where G^{-1} also amplifies a reordered sum (the d = 6 Christoffel symbols
differ by up to 7.2 eps).  The covariant derivative of T_* is a different
sum, read in the orthonormal frame with no G^{-1}, so it is checked within
the eps cond(f_*)^2 rounding of the reference's G^{-1}."""

import itertools

import numpy as np
import pytest

import minkaehler.bending as bending
from minkaehler.bending import (
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
    B_by_formula_einsum,
    B_by_variation_broadcast,
    B_with_codazzi_derivative_einsum,
    christoffel_einsum,
    covariant_field_derivative_broadcast,
    fundamental_equation_residual_einsum,
    in_orthonormal_columns,
    laplace_beltrami_einsum,
    metric_derivative_broadcast,
    second_form_broadcast,
    tangential_covariant_derivative_einsum,
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


def assert_within(got, ref, d: int):
    """|got - ref| <= 2 d eps max |ref|, shape for shape."""
    assert got.shape == ref.shape
    np.testing.assert_array_less(np.abs(got - ref), 2 * d * EPS * np.abs(ref).max() + 1e-300)


def test_metric_derivative_and_second_form_are_bitwise(field):
    frame = field.frame
    np.testing.assert_array_equal(frame.metric_derivative, metric_derivative_broadcast(frame.jet))
    np.testing.assert_array_equal(frame.second_form, second_form_broadcast(frame.jet, frame.normal))


def test_christoffel(field):
    jet, Ginv = field.frame.jet, field.frame.metric_inv
    assert_within(christoffel(jet, Ginv), christoffel_einsum(jet, Ginv), jet.d)


def test_laplace_beltrami(field):
    frame = field.frame
    rng = np.random.default_rng(5)
    grad = rng.standard_normal(frame.jet.d1.shape[:-1])
    hess = _symmetric(rng.standard_normal(frame.jet.d2.shape[:-1] + (1,)), 2)[..., 0]
    got = laplace_beltrami(frame, grad, hess)
    assert_within(got, laplace_beltrami_einsum(frame, grad, hess), frame.d)


def test_covariant_field_derivative_is_bitwise(field):
    frame = field.frame
    rng = np.random.default_rng(6)
    S = rng.standard_normal(frame.metric.shape)
    dS = rng.standard_normal(frame.metric_derivative.shape)
    gam = frame.christoffel
    got = covariant_field_derivative(gam, S, dS)
    np.testing.assert_array_equal(got, covariant_field_derivative_broadcast(gam, S, dS))
    # a constant operator, as the Kaehler parallelism check passes J
    J = rng.standard_normal((frame.d, frame.d))
    got = covariant_field_derivative(gam, J, 0.0)
    np.testing.assert_array_equal(got, covariant_field_derivative_broadcast(gam, J, 0.0))


def test_B_by_formula(field):
    assert_within(B_by_formula(field), B_by_formula_einsum(field), field.frame.d)


def test_B_by_variation_is_bitwise(field):
    np.testing.assert_array_equal(B_by_variation(field), B_by_variation_broadcast(field))


def test_tangential_covariant_derivative(field):
    # the orthonormal-frame route against the einsum route through d_i T_*
    # and the Christoffels: a different sum, whose G^{-1} carries eps
    # cond(f_*)^2, so per point within 2 d eps kappa^2 of the largest of the
    # three terms, kappa = ||C||_F ||C^{-1}||_F >= cond(f_*)
    frame = field.frame
    cols = tangential_covariant_derivative(field)
    ref = in_orthonormal_columns(frame, tangential_covariant_derivative_einsum(field))
    kappa2 = (frame.chol**2).sum(axis=(-2, -1)) * (frame.chol_inv**2).sum(axis=(-2, -1))
    scale = np.abs(cols[1:]).max(axis=(0, -2, -1))
    bound = 2 * frame.d * EPS * kappa2 * scale
    np.testing.assert_array_less(np.abs(cols[0] - ref).max(axis=(-2, -1)), bound)


def test_B_with_derivative(field):
    op, dop = B_with_codazzi_derivative(field)
    ref_op, ref_dop = B_with_codazzi_derivative_einsum(field)
    assert_within(op, ref_op, field.frame.d)
    assert_within(dop, ref_dop, field.frame.d)


def test_fundamental_equation_residual(field):
    got = fundamental_equation_residual(field)
    assert_within(got, fundamental_equation_residual_einsum(field), field.frame.d)


def test_fundamental_equation_residual_is_the_same_in_point_blocks(field, monkeypatch):
    # blocks of 7 points split the 30-point stack 7 + 7 + 7 + 7 + 2 and give
    # the bytes of the whole stack in one block
    whole = fundamental_equation_residual(field)
    monkeypatch.setattr(bending, "_WEDGE_BLOCK", 7)
    np.testing.assert_array_equal(fundamental_equation_residual(field), whole)
