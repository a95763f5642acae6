import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkaehler import kernels
from minkaehler.charts import Jet2
from minkaehler.errors import NonImmersionPointError
from minkaehler.geometry import PointFrame, _cleared, point_frame

from oracles import cross_columns_loop, horner_untrimmed

EPS = np.finfo(float).eps


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
        out = kernels.horner_many(coeffs, dz)
        assert out.tobytes() == horner_untrimmed(coeffs, dz).tobytes()

    @pytest.mark.parametrize("npts", [1, 7, 144, 4096])
    @pytest.mark.parametrize("case", ["padded", "negative_zero", "zero_row", "zero_table"])
    def test_trimmed_zero_columns_match_the_untrimmed_recurrence_bitwise(self, npts, case):
        # degree-5 rows padded with 27 zero columns, as a polynomial seed's
        # jet rows are; signed zeros and the offsets' signs must survive
        rng = np.random.default_rng(npts)
        coeffs, dz = random_case(rng, rows=9, order=5, npts=npts)
        coeffs = np.concatenate([coeffs, np.zeros((9, 27))], axis=1)
        dz[: min(npts, 3)] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.5, -0.0)][:npts]
        if case == "negative_zero":
            # the last live column holds -0.0 and nothing else: it is live,
            # and the recurrence must reach it as (+0) dz + (-0)
            coeffs[:, 5] = 0.0
            coeffs[3, :6] = complex(-0.0, -0.0)
        elif case == "zero_row":
            coeffs[2] = 0.0
        elif case == "zero_table":
            coeffs[:] = 0.0
        out = kernels.horner_many(coeffs, dz)
        assert out.tobytes() == horner_untrimmed(coeffs, dz).tobytes()

    def test_constant_series(self):
        coeffs = np.array([[2.0 + 1.0j]])
        out = kernels.horner_many(coeffs, np.array([0.3 + 0.1j, -1.0 + 0.0j]))
        np.testing.assert_array_equal(out, [[2.0 + 1.0j, 2.0 + 1.0j]])


class TestCrossColumns:
    def test_three_dimensional_case_is_the_cross_product(self):
        rng = np.random.default_rng(2)
        d1 = rng.standard_normal((10, 2, 3))
        out = kernels.cross_columns(d1)[0]
        for p in range(10):
            np.testing.assert_allclose(
                out[p], np.cross(d1[p, 0], d1[p, 1]), rtol=1e-12, atol=1e-12
            )

    def test_result_is_orthogonal_with_det_pairing(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 4, 6):
            d1 = rng.standard_normal((6, d, d + 1))
            out = kernels.cross_columns(d1)[0]
            assert out.shape == (6, d + 1)
            for p in range(6):
                # orthogonal to every row, and pairing with u gives det([u|rows])
                np.testing.assert_allclose(d1[p] @ out[p], 0.0, atol=1e-10)
                u = rng.standard_normal(d + 1)
                full = np.column_stack([u, d1[p].T])
                assert out[p] @ u == pytest.approx(np.linalg.det(full), rel=1e-10)

    def test_householder_pass_matches_the_cofactor_loop(self):
        # within 4 d eps cond(M) of each point's largest cofactor, M the
        # (d+1, d) matrix of the point's partials
        rng = np.random.default_rng(4)
        for d in range(1, 11):
            d1 = rng.standard_normal((512, d, d + 1))
            want = cross_columns_loop(d1)
            bound = 4 * d * EPS * np.linalg.cond(d1) * np.abs(want).max(axis=-1)
            assert np.all(np.abs(kernels.cross_columns(d1)[0] - want).max(axis=-1) <= bound)
            # extra leading axes, as a stack of family members carries
            stack = rng.standard_normal((5, 64, d, d + 1))
            want = np.stack([cross_columns_loop(member) for member in stack])
            bound = 4 * d * EPS * np.linalg.cond(stack) * np.abs(want).max(axis=-1)
            assert np.all(np.abs(kernels.cross_columns(stack)[0] - want).max(axis=-1) <= bound)

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_a_point_alone_is_bitwise_its_row_of_the_stack(self, d):
        # every step is elementwise along the point axis, so the stack's size
        # changes no bit of the normal
        rng = np.random.default_rng(d)
        d1 = rng.standard_normal((7, 3, d, d + 1))
        out = kernels.cross_columns(d1)[0]
        for idx in np.ndindex(7, 3):
            assert kernels.cross_columns(d1[idx])[0].tobytes() == out[idx].tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_rows_scaled_past_1e150_and_1e_minus_150(self, d):
        # the cofactors are multilinear in the rows: scaling one row by 2^e
        # and another by 2^-e leaves them unchanged up to roundoff, for
        # 2^500 (about 3e150) and 2^540 (about 4e162, whose square
        # overflows, while that of 2^-540 underflows); scaling every row
        # keeps them finite at d = 1 and, for 2^500, at d = 2
        rng = np.random.default_rng(40 + d)
        d1 = rng.standard_normal((64, d, d + 1))
        want = cross_columns_loop(d1)
        bound = 4 * d * EPS * np.linalg.cond(d1) * np.abs(want).max(axis=-1)
        for e in (500, 540):
            if d >= 2:
                scaled = d1.copy()
                scaled[:, 0] *= 2.0**e
                scaled[:, -1] *= 2.0**-e
                assert np.all(np.abs(kernels.cross_columns(scaled)[0] - want).max(axis=-1) <= bound)
            if e * d < 1020:
                for sign in (1, -1):
                    got = kernels.cross_columns(2.0 ** (sign * e) * d1)[0] * 2.0 ** (-sign * e * d)
                    assert np.all(np.abs(got - want).max(axis=-1) <= bound)
        # partials of size 1e-160, whose squares underflow: no NaN
        assert np.isfinite(kernels.cross_columns(1e-160 * d1)[0]).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_a_zero_row_gives_an_exact_zero(self, d):
        rng = np.random.default_rng(50 + d)
        d1 = rng.standard_normal((d, d, d + 1))
        for i in range(d):
            d1[i, i] = 0.0  # point i has its row i zero
        out = kernels.cross_columns(d1)[0]
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(out, 0.0)

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            kernels.cross_columns(np.zeros((1, 2, 2)))

    def test_degenerate_rows_give_zero(self):
        d1 = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        np.testing.assert_array_equal(kernels.cross_columns(d1)[0], [[0.0, 0.0, 0.0]])


def partials(rng, lead, d, m):
    """A stack of random (d, m) tangent frames f_* and their metrics G."""
    d1 = rng.standard_normal(lead + (d, m))
    return d1, d1 @ np.swapaxes(d1, -1, -2)


class TestCholeskyFactor:
    """C and C^{-1} from the Householder pass of ``cross_columns``."""

    @pytest.mark.parametrize("d", range(1, 11))
    def test_factors_match_lapack(self, d):
        # C and C^{-1} against numpy's Cholesky factor of the formed G and its
        # inverse, within (d + 1) eps cond(G) of each point's largest entry
        # (the one eps more is G's own rounding), for m = d + 1 and m = d + 3
        rng = np.random.default_rng(60 + d)
        for m in (d + 1, d + 3):
            d1, G = partials(rng, (3, 16), d, m)
            chol = np.linalg.cholesky(G)
            bound = (d + 1) * EPS * np.linalg.cond(G)
            normal, *factors = kernels.cross_columns(d1)
            assert normal.shape == (3, 16, m)
            unit = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
            np.testing.assert_allclose(d1 @ unit[..., None], 0.0, atol=1e-12)
            for got, want in zip(factors, (chol, np.linalg.inv(chol))):
                assert got.shape == G.shape
                miss = np.abs(got - want).max(axis=(-2, -1))
                assert np.all(miss <= bound * np.abs(want).max(axis=(-2, -1)))

    def test_factor_is_lower_triangular_with_a_positive_diagonal(self, rng):
        d1, G = partials(rng, (32,), 5, 6)
        _, chol, chol_inv = kernels.cross_columns(d1)
        iu = np.triu_indices(5, 1)
        assert np.all(chol[:, iu[0], iu[1]] == 0.0) and np.all(chol_inv[:, iu[0], iu[1]] == 0.0)
        assert np.all(np.diagonal(chol, axis1=-2, axis2=-1) > 0.0)
        np.testing.assert_allclose(chol @ np.swapaxes(chol, -1, -2), G, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_inverse_rows_on_the_partials_are_orthonormal(self, d):
        # a frame's C^{-1} f_* has orthonormal rows to within
        # 100 d eps cond(f_*) at cond(f_*) = 1e7, where an inverse factor of
        # the formed G would carry eps cond(f_*)^2
        rng = np.random.default_rng(70 + d)
        U = np.linalg.qr(rng.standard_normal((8, d + 1, d + 1)))[0]
        V = np.linalg.qr(rng.standard_normal((8, d, d)))[0]
        d1 = (V * np.logspace(0, -7, d)) @ U[:, :d]
        frame = PointFrame(Jet2(np.zeros((8, d)), np.zeros((8, d + 1)), d1, np.zeros((8, d, d, d + 1))))
        rows = frame.chol_inv @ d1
        miss = np.abs(rows @ np.swapaxes(rows, -1, -2) - np.eye(d)).max(axis=(-2, -1))
        assert np.all(miss <= 100 * d * EPS * np.linalg.cond(d1))

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_a_point_alone_is_bitwise_its_row_of_the_stack(self, d):
        # C, C^{-1} and the rows E = C^{-1} f_* a frame forms from them: the
        # stack's size changes no bit of any, as it changes none of the normal
        rng = np.random.default_rng(d)
        d1, _ = partials(rng, (7, 3), d, d + 1)

        def factors(d1):
            lead = d1.shape[:-2]
            frame = PointFrame(
                Jet2(np.zeros(lead + (d,)), np.zeros(lead + (d + 1,)), d1, np.zeros(lead + (d, d, d + 1)))
            )
            return frame.chol, frame.chol_inv, frame.tangent_rows

        out = factors(d1)
        for idx in np.ndindex(7, 3):
            for alone, stacked in zip(factors(d1[idx]), out):
                assert alone.tobytes() == stacked[idx].tobytes()

    @pytest.mark.parametrize("e", [500, -500, 540, -540])
    def test_power_of_two_scaling_is_exact(self, rng, e):
        # 2^500 is about 3e150 and 2^540 about 4e162, whose square overflows
        d1, _ = partials(rng, (16,), 4, 5)
        _, chol, chol_inv = kernels.cross_columns(d1)
        _, scaled, scaled_inv = kernels.cross_columns(2.0**e * d1)
        assert (scaled * 2.0**-e).tobytes() == chol.tobytes()
        assert (scaled_inv * 2.0**e).tobytes() == chol_inv.tobytes()

    def test_a_zero_or_dependent_row_leaves_the_point_uncleared(self, rng):
        # a zero row, and a row exactly twice another, in the middle of a
        # stack: the factors there are quietly singular or far past the
        # bound, the other points' factors are those they have alone, and
        # the frame leaves both points to the SVD
        d1, _ = partials(rng, (4,), 2, 3)
        d1[1, 0] = 0.0
        d1[2, 1] = 2.0 * d1[2, 0]
        out = kernels.cross_columns(d1)
        for k in (0, 3):
            for alone, stacked in zip(kernels.cross_columns(d1[k]), out):
                assert alone.tobytes() == stacked[k].tobytes()
        assert not np.isfinite(out[2][1]).all()
        frame = PointFrame(Jet2(np.zeros((4, 2)), np.zeros((4, 3)), d1, np.zeros((4, 2, 2, 3))))
        np.testing.assert_array_equal(_cleared(frame), [True, False, False, True])

    def test_rounded_dependence_reaches_the_svd(self, monkeypatch):
        # a rounded multiple of the first row, whose factor is not exactly
        # singular: the bound cannot clear that point, and the SVD finds it
        row = np.array([-1.282491794740462, 0.9669722789332148, -0.36060836889927])
        bad = np.array([row, 1.3298750596903113 * row])
        d1 = np.stack([np.eye(2, 3), bad, np.eye(2, 3)])
        coords = np.array([[0.0, 0.0], [7.25, -3.5], [1.0, 1.0]])
        jet = Jet2(coords, np.zeros((3, 3)), d1, np.zeros((3, 2, 2, 3)))
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        with pytest.raises(NonImmersionPointError, match="dependent at " + re.escape(str(coords[1]))):
            point_frame(jet)
        assert calls == [(1, 2, 3)]
