"""The truncated Taylor type against closed forms and numpy.

Elementary functions are checked through order 4 against their known
derivatives; products and linear solves against numpy's polynomial and
dense linear algebra; and, as a property, the expansion of a random
polynomial map about a random point is that polynomial's coefficients.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkaehler.taylor import Taylor, solve


def univariate(u0, order=4) -> Taylor:
    return Taylor.variables(np.asarray(u0, dtype=np.float64)[..., None], order)[..., 0]


def derivatives_1d(t: Taylor) -> np.ndarray:
    """(..., order + 1) derivatives of a one-variable expansion."""
    return t.c * np.array([math.factorial(k) for k in range(t.order + 1)])


U = np.array([0.3, 0.9, 1.7])

CLOSED_FORMS = {
    # name: (method, k-th derivative at u)
    "sin": (Taylor.sin, lambda u, k: np.sin(u + k * np.pi / 2)),
    "cos": (Taylor.cos, lambda u, k: np.cos(u + k * np.pi / 2)),
    "log": (Taylor.log, lambda u, k: np.log(u) if k == 0 else (-1) ** (k - 1) * math.factorial(k - 1) / u**k),
    "sqrt": (
        Taylor.sqrt,
        lambda u, k: math.prod(0.5 - j for j in range(k)) * u ** (0.5 - k),
    ),
    "reciprocal": (Taylor.reciprocal, lambda u, k: (-1) ** k * math.factorial(k) / u ** (k + 1)),
}


class TestElementary:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_derivatives_to_order_four(self, name):
        method, exact = CLOSED_FORMS[name]
        got = derivatives_1d(method(univariate(U)))
        want = np.stack([exact(U, k) for k in range(5)], axis=-1)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_inner_expansions_compose(self, name):
        # f(u(x, y)) with u = 0.8 + x + 0.5 x y: the chain rule through
        # order 2, checked on d/dx, d/dy and the mixed partial
        method, exact = CLOSED_FORMS[name]
        xy = Taylor.variables(np.zeros(2), 2)
        u = 0.8 + xy[0] + 0.5 * xy[0] * xy[1]
        f = method(u)
        f1, f2 = exact(0.8, 1), exact(0.8, 2)
        np.testing.assert_allclose(f.derivatives(1), [f1, 0.0], atol=1e-14)
        np.testing.assert_allclose(f.derivatives(2), [[f2, 0.5 * f1], [0.5 * f1, 0.0]], atol=1e-13)

    def test_division_matches_the_product_with_the_reciprocal(self):
        x = univariate(U)
        q = (x.sin() + 2.0) / (x.cos() + 2.0)
        want = (x.sin() + 2.0) * (x.cos() + 2.0).reciprocal()
        np.testing.assert_array_equal(q.c, want.c)
        np.testing.assert_allclose(((x.sin() + 2.0) / q).c, (x.cos() + 2.0).c, atol=1e-14)


class TestAgainstNumpy:
    def test_univariate_product_is_the_truncated_polynomial_product(self, rng):
        a, b = rng.standard_normal((2, 6))
        got = Taylor(a, 1, 5) * Taylor(b[:4], 1, 3)
        assert got.order == 3
        want = np.polynomial.polynomial.polymul(a, b)[:4]
        np.testing.assert_allclose(got.c, want, rtol=1e-14, atol=1e-14)

    def test_bivariate_product_is_the_truncated_convolution(self, rng):
        order = 4
        a, b = (Taylor(rng.standard_normal(15), 2, order) for _ in range(2))
        exps = [(i, k - i) for k in range(order + 1) for i in range(k, -1, -1)]

        def grid(t):
            g = np.zeros((order + 1, order + 1))
            for c, (i, j) in zip(t.c, exps):
                g[i, j] = c
            return g

        full = np.zeros((2 * order + 1, 2 * order + 1))
        for i, j in itertools.product(range(order + 1), repeat=2):
            full[i : i + order + 1, j : j + order + 1] += grid(a)[i, j] * grid(b)
        want = [full[i, j] for i, j in exps]
        np.testing.assert_allclose((a * b).c, want, rtol=1e-13, atol=1e-13)

    def test_solve_matches_numpy_and_inverts_the_product(self, rng):
        x = Taylor.variables(rng.uniform(-0.5, 0.5, size=(4, 2)), 3)  # 4 points
        A = Taylor.stack(
            [
                Taylor.stack([2.0 + x[..., 0].sin(), x[..., 1] * x[..., 0]]),
                Taylor.stack([x[..., 1].cos(), 3.0 + x[..., 0] * x[..., 0]]),
            ],
            axis=-2,
        )
        b = Taylor.stack([x[..., 0].cos(), 1.0 + x[..., 1]])
        sol = solve(A, b)
        np.testing.assert_allclose(sol.value, np.linalg.solve(A.value, b.value[..., None])[..., 0], atol=1e-15)
        back = (A * sol[..., None, :]).sum(-1)
        np.testing.assert_allclose(back.c, b.c, atol=1e-13)
        # first derivatives: A0 dx = db - dA x0
        dA, db = A.derivatives(1), b.derivatives(1)
        rhs = db - np.einsum("pijl,pj->pil", dA, sol.value)
        np.testing.assert_allclose(sol.derivatives(1), np.linalg.solve(A.value, rhs), atol=1e-13)


class TestDerivativeTables:
    def test_from_derivatives_inverts_derivatives(self, rng):
        t = Taylor(rng.standard_normal((2, 3, 35)), 4, 3)
        back = Taylor.from_derivatives([t.derivatives(k) for k in range(4)])
        np.testing.assert_allclose(back.c, t.c, rtol=1e-15, atol=1e-15)

    def test_diff_lowers_the_order(self):
        x = Taylor.variables(np.array([0.4, -0.3]), 3)
        f = x[0] * x[0] * x[1]
        df = f.diff(0)
        assert df.order == 2
        np.testing.assert_allclose(df.derivatives(1), f.derivatives(2)[0], atol=1e-15)

    def test_restrict_holds_the_other_variables_at_zero(self):
        x = Taylor.variables(np.array([0.4, -0.3, 0.2]), 3)
        f = (x[0] * x[2]).sin() + x[1]
        r = f.restrict(2)
        y = Taylor.variables(np.array([0.4, -0.3]), 3)
        np.testing.assert_allclose(r.c, ((0.2 * y[0]).sin() + y[1]).c, atol=1e-15)


@st.composite
def polynomial_maps(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 4))
    size = math.comb(n + order, n)
    floats = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    coeffs = draw(st.lists(floats, min_size=size, max_size=size))
    point = draw(st.lists(floats, min_size=n, max_size=n))
    return n, order, np.array(coeffs), np.array(point)


@settings(max_examples=60, deadline=None)
@given(polynomial_maps())
def test_jets_of_a_polynomial_map_equal_its_coefficients(case):
    n, order, coeffs, point = case
    x = Taylor.variables(point, order)
    h = [x[i] - point[i] for i in range(n)]
    # sum_a c_a (x - p)^a, monomials in the table's order: by degree, then
    # by sorted variable-index tuple
    value = 0.0 * x[0]
    monomials = [m for k in range(order + 1) for m in itertools.combinations_with_replacement(range(n), k)]
    for c, m in zip(coeffs, monomials):
        term = 0.0 * x[0] + c
        for i in m:
            term = term * h[i]
        value = value + term
    np.testing.assert_allclose(value.c, coeffs, rtol=0.0, atol=1e-12)
    for k in range(order + 1):
        for idx in itertools.product(range(n), repeat=k):
            m = monomials.index(tuple(sorted(idx)))
            alpha = np.bincount(np.asarray(idx, dtype=int), minlength=n)
            want = coeffs[m] * math.prod(math.factorial(a) for a in alpha)
            assert value.derivatives(k)[idx] == pytest.approx(want, abs=1e-11)
