import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkaehler import kernels

from oracles import cross_columns_loop


def random_case(rng, rows, order, npts):
    coeffs = rng.standard_normal((rows, order + 1)) + 1j * rng.standard_normal(
        (rows, order + 1)
    )
    dz = 0.5 * (rng.standard_normal(npts) + 1j * rng.standard_normal(npts))
    return coeffs, dz


class TestHorner:
    def test_matches_polyval_reference(self):
        rng = np.random.default_rng(0)
        coeffs, dz = random_case(rng, rows=5, order=12, npts=7)
        out = kernels.horner_many(coeffs, dz)
        for r in range(5):
            expect = np.polyval(coeffs[r, ::-1], dz)
            np.testing.assert_allclose(out[r], expect, rtol=1e-12)

    @given(st.integers(0, 6), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_agreement_across_shapes(self, order, npts):
        rng = np.random.default_rng(order * 31 + npts)
        coeffs, dz = random_case(rng, rows=3, order=order, npts=npts)
        out = kernels.horner_many(coeffs, dz)
        assert out.shape == (3, npts)
        for r in range(3):
            expect = np.polyval(coeffs[r, ::-1], dz)
            np.testing.assert_allclose(out[r], expect, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("npts", [1, 7, 144, 4096])
    def test_in_place_steps_match_the_allocating_recurrence_bitwise(self, npts):
        # numpy's complex product can round differently at another array
        # offset; the in-place update must not
        rng = np.random.default_rng(npts)
        coeffs, dz = random_case(rng, rows=9, order=14, npts=npts)
        expect = np.repeat(coeffs[:, -1][:, None], npts, axis=1)
        for k in range(coeffs.shape[1] - 2, -1, -1):
            expect = expect * dz[None, :] + coeffs[:, k][:, None]
        out = kernels.horner_many(coeffs, dz)
        assert out.tobytes() == expect.tobytes()

    def test_constant_series(self):
        coeffs = np.array([[2.0 + 1.0j]])
        out = kernels.horner_many(coeffs, np.array([0.3 + 0.1j, -1.0 + 0.0j]))
        np.testing.assert_array_equal(out, [[2.0 + 1.0j, 2.0 + 1.0j]])


class TestCrossColumns:
    def test_three_dimensional_case_is_the_cross_product(self):
        rng = np.random.default_rng(2)
        d1 = rng.standard_normal((10, 2, 3))
        out = kernels.cross_columns(d1)
        for p in range(10):
            np.testing.assert_allclose(
                out[p], np.cross(d1[p, 0], d1[p, 1]), rtol=1e-12, atol=1e-12
            )

    def test_result_is_orthogonal_with_det_pairing(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 4, 6):
            d1 = rng.standard_normal((6, d, d + 1))
            out = kernels.cross_columns(d1)
            assert out.shape == (6, d + 1)
            for p in range(6):
                # orthogonal to every row, and pairing with u gives det([u|rows])
                np.testing.assert_allclose(d1[p] @ out[p], 0.0, atol=1e-10)
                u = rng.standard_normal(d + 1)
                full = np.column_stack([u, d1[p].T])
                assert out[p] @ u == pytest.approx(np.linalg.det(full), rel=1e-10)

    def test_one_stacked_det_matches_the_cofactor_loop(self):
        rng = np.random.default_rng(4)
        for d in (1, 2, 4, 6):
            d1 = rng.standard_normal((512, d, d + 1))
            np.testing.assert_array_equal(kernels.cross_columns(d1), cross_columns_loop(d1))

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            kernels.cross_columns(np.zeros((1, 2, 4)))

    def test_degenerate_rows_give_zero(self):
        d1 = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        np.testing.assert_array_equal(kernels.cross_columns(d1), [[0.0, 0.0, 0.0]])
