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

    def test_householder_pass_matches_the_cofactor_loop(self):
        # within 4 d eps cond(M) of each point's largest cofactor, M the
        # (d+1, d) matrix of the point's partials
        rng = np.random.default_rng(4)
        for d in range(1, 11):
            d1 = rng.standard_normal((512, d, d + 1))
            want = cross_columns_loop(d1)
            bound = 4 * d * EPS * np.linalg.cond(d1) * np.abs(want).max(axis=-1)
            assert np.all(np.abs(kernels.cross_columns(d1) - want).max(axis=-1) <= bound)
            # extra leading axes, as a stack of family members carries
            stack = rng.standard_normal((5, 64, d, d + 1))
            want = np.stack([cross_columns_loop(member) for member in stack])
            bound = 4 * d * EPS * np.linalg.cond(stack) * np.abs(want).max(axis=-1)
            assert np.all(np.abs(kernels.cross_columns(stack) - want).max(axis=-1) <= bound)

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_a_point_alone_is_bitwise_its_row_of_the_stack(self, d):
        # every step is elementwise along the point axis, so the stack's size
        # changes no bit (a tie between eigenvalues +-lambda is broken alike)
        rng = np.random.default_rng(d)
        d1 = rng.standard_normal((7, 3, d, d + 1))
        out = kernels.cross_columns(d1)
        for idx in np.ndindex(7, 3):
            assert kernels.cross_columns(d1[idx]).tobytes() == out[idx].tobytes()

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
                assert np.all(np.abs(kernels.cross_columns(scaled) - want).max(axis=-1) <= bound)
            if e * d < 1020:
                for sign in (1, -1):
                    got = kernels.cross_columns(2.0 ** (sign * e) * d1) * 2.0 ** (-sign * e * d)
                    assert np.all(np.abs(got - want).max(axis=-1) <= bound)
        # partials of size 1e-160, whose squares underflow: no NaN
        assert np.isfinite(kernels.cross_columns(1e-160 * d1)).all()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_a_zero_row_gives_an_exact_zero(self, d):
        rng = np.random.default_rng(50 + d)
        d1 = rng.standard_normal((d, d, d + 1))
        for i in range(d):
            d1[i, i] = 0.0  # point i has its row i zero
        out = kernels.cross_columns(d1)
        assert not np.isnan(out).any()
        np.testing.assert_array_equal(out, 0.0)

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="ambient"):
            kernels.cross_columns(np.zeros((1, 2, 4)))

    def test_degenerate_rows_give_zero(self):
        d1 = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        np.testing.assert_array_equal(kernels.cross_columns(d1), [[0.0, 0.0, 0.0]])


def spd_stack(rng, lead, d):
    raw = rng.standard_normal(lead + (d, d))
    return raw @ np.swapaxes(raw, -1, -2) + 0.1 * np.eye(d)


class TestLdlFactors:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_factors_match_lapack(self, d):
        # C, C^{-1} and G^{-1} against numpy's Cholesky factor and inverses,
        # within d eps cond(G) of each point's largest entry
        rng = np.random.default_rng(60 + d)
        G = spd_stack(rng, (3, 16), d)
        chol = np.linalg.cholesky(G)
        bound = d * EPS * np.linalg.cond(G)
        for got, want in zip(kernels.ldl_factors(G), (chol, np.linalg.inv(chol), np.linalg.inv(G))):
            assert got.shape == G.shape
            miss = np.abs(got - want).max(axis=(-2, -1))
            assert np.all(miss <= bound * np.abs(want).max(axis=(-2, -1)))

    def test_factors_are_lower_triangular_and_the_inverse_symmetric_to_roundoff(self, rng):
        G = spd_stack(rng, (32,), 5)
        chol, chol_inv, inv = kernels.ldl_factors(G)
        iu = np.triu_indices(5, 1)
        assert np.all(chol[:, iu[0], iu[1]] == 0.0) and np.all(chol_inv[:, iu[0], iu[1]] == 0.0)
        np.testing.assert_allclose(chol @ np.swapaxes(chol, -1, -2), G, rtol=1e-13, atol=0)
        np.testing.assert_allclose(inv, np.swapaxes(inv, -1, -2), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_a_point_alone_is_bitwise_its_row_of_the_stack(self, d):
        rng = np.random.default_rng(d)
        G = spd_stack(rng, (7, 3), d)
        out = kernels.ldl_factors(G)
        for idx in np.ndindex(7, 3):
            for alone, stacked in zip(kernels.ldl_factors(G[idx]), out):
                assert alone.tobytes() == stacked[idx].tobytes()

    def test_metrics_scaled_by_1e150_and_1e_minus_150(self, rng):
        G = spd_stack(rng, (16,), 4)
        want = kernels.ldl_factors(G)
        for e in (500, -500):
            chol, chol_inv, inv = kernels.ldl_factors(2.0 ** (2 * e) * G)
            np.testing.assert_allclose(chol * 2.0**-e, want[0], rtol=1e-14, atol=0)
            np.testing.assert_allclose(chol_inv * 2.0**e, want[1], rtol=1e-14, atol=0)
            np.testing.assert_allclose(inv * 2.0 ** (2 * e), want[2], rtol=1e-14, atol=0)

    def test_a_metric_that_is_not_positive_definite_stays_uncleared(self, rng):
        # an indefinite G in the middle of a stack: its factors are not
        # finite, quietly, and the other points' are those they have alone
        G = spd_stack(rng, (3,), 2)
        G[1] = [[1.0, 2.0], [2.0, 1.0]]
        out = kernels.ldl_factors(G)
        for k in (0, 2):
            for alone, stacked in zip(kernels.ldl_factors(G[k]), out):
                assert alone.tobytes() == stacked[k].tobytes()
        assert not all(np.isfinite(f[1]).all() for f in out)
        # a frame reading that metric leaves the point to the SVD
        frame = PointFrame(Jet2(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2, 3)), np.zeros((3, 2, 2, 3))))
        frame.__dict__["metric"] = G
        np.testing.assert_array_equal(_cleared(frame), [True, False, True])

    def test_rounded_dependence_with_a_negative_pivot_reaches_the_svd(self, monkeypatch):
        # a rounded multiple of the first row whose second pivot rounds
        # below zero: G has no Cholesky factor at that point only
        row = np.array([-1.282491794740462, 0.9669722789332148, -0.36060836889927])
        bad = np.array([row, 1.3298750596903113 * row])
        assert np.isnan(kernels.ldl_factors(bad @ bad.T)[0]).any()
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
