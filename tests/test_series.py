import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkaehler.errors import DomainError
from minkaehler.series import (
    TruncatedSeries,
    mul_error_bound,
    series_add,
    series_diff,
    series_eval,
    series_int,
    series_mul,
    to_order,
    vdot,
)

# Subnormal components are excluded: gradual underflow carries absolute (not
# relative) rounding guarantees, so divide-then-multiply round trips cannot
# promise a relative tolerance there.
finite_complex = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=8)


def make(coeffs, base=0.0):
    return TruncatedSeries(base, coeffs)


class TestBasicOps:
    def test_mul_truncates_to_min_order(self):
        a = make([1, 2, 3])        # order 2
        b = make([1, 1])           # order 1
        c = series_mul(a, b)
        assert c.order == 1
        assert np.allclose(c.coeffs, [1, 3])

    def test_mul_cauchy_coefficients(self):
        a = make([1, 1, 0])
        b = make([1, -1, 2])
        c = series_mul(a, b)
        # (1 + x)(1 - x + 2x^2) = 1 + 0x + 1x^2 + ...
        assert np.allclose(c.coeffs, [1, 0, 1])

    def test_diff_drops_order(self):
        a = make([5, 2, 7])
        d = series_diff(a)
        assert d.order == 1
        assert np.allclose(d.coeffs, [2, 14])

    def test_diff_of_constant_is_zero_series_order_zero(self):
        d = series_diff(make([3.0]))
        assert d.order == 0
        assert d.coeffs[0] == 0

    def test_int_raises_order_and_sets_constant(self):
        a = make([2, 6])
        c = series_int(a, constant=1 + 2j)
        assert c.order == 2
        assert np.allclose(c.coeffs, [1 + 2j, 2, 3])

    def test_eval_horner(self):
        a = make([1, 2, 3], base=1.0)
        z = 1.5
        assert series_eval(a, z) == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)

    def test_basepoint_mismatch_raises(self):
        with pytest.raises(DomainError):
            series_add(make([1], base=0.0), make([1], base=1.0))
        with pytest.raises(DomainError):
            series_mul(make([1], base=0.0), make([1], base=1.0))

    def test_coeffs_immutable(self):
        a = make([1, 2])
        with pytest.raises(ValueError):
            a.coeffs[0] = 5.0

    def test_truncate(self):
        a = make([1, 2, 3, 4])
        assert np.array_equal(to_order(a, 1).coeffs, [1, 2])
        assert to_order(a, 3) is a
        with pytest.raises(ValueError):
            to_order(a, -1)

    def test_to_order_pads_with_zeros(self):
        a = make([[1, 2], [3, 4]])
        assert np.array_equal(to_order(a, 3).coeffs, [[1, 2, 0, 0], [3, 4, 0, 0]])


class TestStacks:
    """A (3, K) stack against the scalar calls on its rows, bit for bit."""

    @pytest.fixture
    def rows(self, rng):
        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        return draw((3, 7)), draw((3, 5))

    def test_len_and_rows(self, rows):
        a = make(rows[0])
        assert len(a) == 3 and a.order == 6
        assert np.array_equal(a[1].coeffs, rows[0][1])
        assert np.array_equal([r.coeffs for r in a], rows[0])
        with pytest.raises(TypeError):
            len(a[0])
        with pytest.raises(IndexError):
            a[0, 1]

    @pytest.mark.parametrize("swap", [False, True])
    def test_mul_of_unequal_orders_matches_rows(self, rows, swap):
        # np.convolve swaps its operands when the second is longer; the
        # stack must still round like each scalar product
        a, b = (make(rows[1]), make(rows[0])) if swap else (make(rows[0]), make(rows[1]))
        got = series_mul(a, b)
        assert got.coeffs.shape == (3, 5)
        for i in range(3):
            assert np.array_equal(got[i].coeffs, series_mul(a[i], b[i]).coeffs)

    def test_mul_broadcasts_a_scalar_factor(self, rows):
        s, b = make(rows[1][0]), make(rows[0])
        got = series_mul(s, b)
        for i in range(3):
            assert np.array_equal(got[i].coeffs, series_mul(s, b[i]).coeffs)

    def test_int_diff_eval_match_rows(self, rows):
        a = make(rows[0], base=0.5)
        consts = np.array([1.0, 2j, -3.0])
        integral, derivative = series_int(a, consts), series_diff(a)
        values = series_eval(a, 0.7 - 0.2j)
        assert values.shape == (3,)
        for i in range(3):
            assert np.array_equal(integral[i].coeffs, series_int(a[i], consts[i]).coeffs)
            assert np.array_equal(derivative[i].coeffs, series_diff(a[i]).coeffs)
            assert values[i] == series_eval(a[i], 0.7 - 0.2j)

    def test_int_constant_broadcasts(self, rows):
        assert np.array_equal(series_int(make(rows[0]), 2.5).coeffs[:, 0], [2.5] * 3)

    def test_ragged_stack_is_rejected(self):
        with pytest.raises(ValueError):
            make([[1, 2], [1]])


class TestVdot:
    def test_no_conjugation(self):
        # (i, 1) . (i, 1) = i^2 + 1 = 0; a Hermitian product would give 2
        v = make([[1j], [1.0]])
        assert abs(vdot(v, v).coeffs[0]) == 0.0

    def test_symmetry(self):
        u = make([[1, 2], [3j, 1]])
        w = make([[2, -1], [0, 1j]])
        assert np.allclose(vdot(u, w).coeffs, vdot(w, u).coeffs)

    def test_is_the_sum_of_row_products(self, rng):
        u = make(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
        acc = series_mul(u[0], u[0])
        for i in range(1, 4):
            acc = series_add(acc, series_mul(u[i], u[i]))
        assert np.array_equal(vdot(u, u).coeffs, acc.coeffs)

    def test_isotropy_of_recursion_block(self):
        # ((1-z^2)/2, i(1+z^2)/2, z) is isotropic for the symmetric product
        order = 8
        z = TruncatedSeries.variable(0.0, order)
        one = TruncatedSeries.constant(1.0, 0.0, order)
        z2 = series_mul(z, z)
        v = make(np.stack([(one.coeffs - z2.coeffs) * 0.5, (one.coeffs + z2.coeffs) * 0.5j, z.coeffs]))
        assert np.abs(vdot(v, v).coeffs).max() < 1e-15

    def test_component_mismatch(self):
        with pytest.raises(DomainError):
            vdot(make([[1]]), make([[1], [1]]))


class TestCalculus:
    @given(coeff_lists)
    @settings(max_examples=60)
    def test_diff_of_int_restores_coefficients(self, coeffs):
        a = make(coeffs)
        back = series_diff(series_int(a, constant=3.0))
        assert back.order == a.order
        np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=4e-16, atol=0)

    @given(coeff_lists, finite_complex)
    @settings(max_examples=60)
    def test_int_constant_is_value_at_base(self, coeffs, const):
        a = make(coeffs, base=1.5)
        c = series_int(a, constant=const)
        assert series_eval(c, 1.5) == const


class TestRingProperties:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_mul_commutes(self, ca, cb):
        a, b = make(ca), make(cb)
        ab, ba = series_mul(a, b), series_mul(b, a)
        np.testing.assert_allclose(ab.coeffs, ba.coeffs, rtol=1e-13, atol=1e-13)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_distributive_at_common_order(self, ca, cb, cc):
        n = min(len(ca), len(cb), len(cc)) - 1
        a, b, c = (to_order(make(x), n) for x in (ca, cb, cc))
        lhs = series_mul(a, series_add(b, c))
        rhs = series_add(series_mul(a, b), series_mul(a, c))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=60)
    def test_associative_at_common_order(self, ca, cb, cc):
        n = min(len(ca), len(cb), len(cc)) - 1
        a, b, c = (to_order(make(x), n) for x in (ca, cb, cc))
        lhs = series_mul(series_mul(a, b), c)
        rhs = series_mul(a, series_mul(b, c))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11, atol=1e-11)


class TestErrorBound:
    @given(coeff_lists, coeff_lists, st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=60)
    def test_truncated_product_error_within_bound(self, ca, cb, rho):
        a, b = make(ca), make(cb)
        prod = series_mul(a, b)
        bound = mul_error_bound(a, b, rho)
        for ang in (0.0, 1.1, 2.9):
            z = rho * np.exp(1j * ang)
            exact = series_eval(a, z) * series_eval(b, z)
            got = series_eval(prod, z)
            assert abs(exact - got) <= bound * (1 + 1e-12) + 1e-12
