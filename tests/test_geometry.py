import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from minkaehler.charts import (
    ImmersionChart,
    Jet2,
    ProductChart,
    grid_points,
    random_points,
    shrink_box,
)
from minkaehler.errors import (
    DomainError,
    IndeterminateRankWarning,
    NonImmersionPointError,
)
from minkaehler.bending import codazzi_residual
from minkaehler.geometry import (
    PointFrame,
    anticommutation_residual,
    christoffel,
    covariant_field_derivative,
    gnorm_op,
    laplace_beltrami,
    minimality_residual,
    point_frame,
    rank_and_nullity,
    rank_two_residual,
    relative,
)
from minkaehler.export import SliceSpec, export_slice
from minkaehler.gausspar import clifford_torus_surface, geodesic_sphere_surface, make_cylinder_bending
from minkaehler.kernels import cross_columns
from minkaehler.seeds import builtin_seed
from minkaehler.suites import _quadratic_control_jet, build_bundle, run_suites
from minkaehler.taylor import Taylor, TaylorChart
from minkaehler.weierstrass import chart_complex_structure

from oracles import (
    SIX_SEEDS,
    christoffel_coord,
    ellipse_chart,
    ellipse_support,
    fd_christoffel,
    fd_jet,
    gnorm_coord,
    gnorm_spectral,
    in_frame,
    metric_derivative,
    metric_of,
    plane_chart,
    point_frame_full_svd,
    polar_christoffel,
    polar_plane_chart,
    seed_bundle,
    sphere_chart,
    shape_operator,
    sphere_harmonic_eigencheck,
    weingarten_residual,
)


def diagonal_jet(h) -> Jet2:
    """Jet at the origin of the graph x_{d+1} = sum_i h_i x_i^2 / 2 for each
    row h of ``h``: G = I, so the shape operator is diag(h) up to the
    normal's orientation."""
    h = np.asarray(h, dtype=np.float64)
    d = h.shape[-1]
    d1 = np.zeros(h.shape + (d + 1,))
    d1[..., range(d), range(d)] = 1.0
    d2 = np.zeros(h.shape + (d, d + 1))
    d2[..., range(d), range(d), d] = h
    return Jet2(np.zeros(h.shape), np.zeros(h.shape[:-1] + (d + 1,)), d1, d2)


def graph_jet(lam: float) -> Jet2:
    """Jet of the graph z = (x^2 + lam y^2) / 2 at the origin."""
    return diagonal_jet([1.0, lam])


# a +-lambda pair whose moduli differ in the last bit, in each direction and
# in either position, beside two zero curvatures, and beside a third one
LAM = 2.4458
LAM_UP = np.nextafter(LAM, np.inf)
TIED = {
    "negative-larger": [LAM, -LAM_UP, 0.0, 0.0],
    "negative-larger-first": [-LAM_UP, LAM, 0.0, 0.0],
    "positive-larger": [0.0, LAM_UP, 0.0, -LAM],
    "positive-larger-first": [-LAM, 0.0, LAM_UP, 0.0],
    "d4": [0.3, -LAM_UP, LAM, 0.0],
}


class TestCross:
    def test_r3_right_handed(self):
        out = cross_columns(np.array([[1.0, 0, 0], [0, 1.0, 0]]))[0]
        np.testing.assert_array_equal(out, [0, 0, 1])

    def test_row_swap_flips_sign(self, rng):
        v = rng.standard_normal((3, 4))
        a = cross_columns(v)[0]
        b = cross_columns(v[[1, 0, 2]])[0]
        np.testing.assert_allclose(a, -b, atol=1e-14)

    def test_orthogonal_to_all_inputs(self, rng):
        for d in (1, 2, 3, 4):
            v = rng.standard_normal((d, d + 1))
            out = cross_columns(v)[0]
            np.testing.assert_allclose(v @ out, 0.0, atol=1e-12)

    def test_shape_rejected(self):
        with pytest.raises(DomainError):
            cross_columns(np.zeros((2, 2)))


class TestPointFrame:
    def test_sphere_is_totally_umbilic(self):
        chart = sphere_chart()
        for p in ([0.5, 1.2], [1.0, 0.8], [0.3, 2.1]):
            fr = point_frame(chart.jet(p))
            np.testing.assert_allclose(shape_operator(fr), np.eye(2), atol=1e-12)
            np.testing.assert_allclose(fr.shape_hat, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(fr.normal, -fr.jet.value, atol=1e-12)

    def test_orthonormal_frame_products(self, m4r5_chart):
        # E = C^{-1} f_* has orthonormal rows normal to N, A_hat = C^T A
        # C^{-T} is symmetric, and Gamma_hat_ij = E f_ij = C^T Gamma_ij, with
        # A and Gamma from solves against G
        fr = point_frame(m4r5_chart.jet([0.1, 0.05, 0.2, -0.1]))
        E = fr.tangent_rows
        np.testing.assert_allclose(E @ E.T, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(E @ fr.normal, 0.0, atol=1e-14)
        np.testing.assert_allclose(fr.chol @ E, fr.jet.d1, atol=1e-14 * np.abs(fr.jet.d1).max())
        S = fr.shape_hat
        np.testing.assert_allclose(S, S.T, atol=1e-14 * np.abs(S).max())
        np.testing.assert_array_equal(fr.in_frame(np.eye(4)), fr.chol.T @ fr.chol_inv.T)
        np.testing.assert_allclose(S, fr.in_frame(shape_operator(fr)), atol=1e-13 * np.abs(S).max())
        gam = fr.christoffel_hat
        ref = np.einsum("qk,qij->kij", fr.chol, christoffel_coord(fr))
        np.testing.assert_allclose(gam, ref, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("h", TIED.values(), ids=TIED.keys())
    def test_tied_pair_is_rank_two_with_no_order(self, h):
        # the rank row and the range projector are polynomials in A_hat, so
        # a +-lambda pair needs no order: rank 2 to roundoff, with Pi the
        # projector onto the two curved axes; a third curvature is a miss
        # of order one
        fr = point_frame(diagonal_jet(h))
        H = np.diagonal(fr.second_form)
        assert sorted(np.abs(H)) == sorted(np.abs(h))  # the last-bit gap survives
        proj = fr.shape_range[0]
        if np.count_nonzero(h) == 2:
            assert rank_two_residual(fr) <= 4 * np.finfo(np.float64).eps
            np.testing.assert_allclose(proj, np.diag(np.array(h) != 0.0).astype(float), atol=1e-15)
        else:
            assert rank_two_residual(fr) > 0.01

    def test_tied_pairs_read_alike_in_a_stack_and_alone(self):
        h = np.array([v for v in TIED.values()][:4]).reshape(2, 2, 4)
        stacked = point_frame(diagonal_jet(h))
        for idx in np.ndindex(2, 2):
            alone = point_frame(diagonal_jet(h[idx]))
            np.testing.assert_array_equal(rank_two_residual(stacked)[idx], rank_two_residual(alone))
            np.testing.assert_array_equal(stacked.shape_range[0][idx], alone.shape_range[0])

    def test_dependent_partials_rejected(self):
        bad = Jet2(
            coords=np.zeros(2),
            value=np.zeros(3),
            d1=np.array([[1.0, 0, 0], [2.0, 0, 0]]),
            d2=np.zeros((2, 2, 3)),
        )
        with pytest.raises(NonImmersionPointError):
            point_frame(bad)

    def test_singular_point_in_a_stack_is_located(self):
        # the middle jet of three has dependent partials; the error names it
        good = graph_jet(1.0)
        stack = [good, dataclasses.replace(good, d1=np.array([[1.0, 0, 0], [2.0, 0, 0]])), good]
        coords = np.array([[0.0, 0.0], [7.25, -3.5], [1.0, 1.0]])
        jet = Jet2(coords, *(np.stack([getattr(j, k) for j in stack]) for k in ("value", "d1", "d2")))
        with pytest.raises(NonImmersionPointError, match=re.escape(str(coords[1]))):
            point_frame(jet)

    def test_degenerate_normal_is_located(self):
        # partials of size 1e-160 pass the relative SVD check, but their
        # cross product (size 1e-320) is no normal to divide by
        good = graph_jet(1.0)
        stack = [good, dataclasses.replace(good, d1=1e-160 * good.d1), good]
        coords = np.array([[0.0, 0.0], [7.25, -3.5], [1.0, 1.0]])
        jet = Jet2(coords, *(np.stack([getattr(j, k) for j in stack]) for k in ("value", "d1", "d2")))
        with pytest.raises(NonImmersionPointError, match="degenerate normal at " + re.escape(str(coords[1]))):
            point_frame(jet)

    @pytest.mark.parametrize("part", ["value", "d1", "d2"])
    def test_non_finite_jet_is_located(self, part):
        # a jet overflowed far outside a series' disc: the error names the
        # first point whose value or partials are not finite, before any SVD
        good = graph_jet(1.0)
        bad = getattr(good, part).copy()
        bad.flat[-1] = np.inf if part == "d1" else np.nan
        stack = [good, dataclasses.replace(good, **{part: bad}), good]
        coords = np.array([[0.0, 0.0], [7.25, -3.5], [1.0, 1.0]])
        jet = Jet2(coords, *(np.stack([getattr(j, k) for j in stack]) for k in ("value", "d1", "d2")))
        with pytest.raises(NonImmersionPointError, match=re.escape(str(coords[1])) + ".*not finite"):
            point_frame(jet)
        with pytest.raises(NonImmersionPointError, match="not finite"):
            point_frame(stack[1])

    def test_shape_norm_is_the_g_norm_of_a(self, rng):
        chart = sphere_chart()
        fr = point_frame(chart.jet(random_points(shrink_box(chart.box, 0.8), 5, rng)))
        np.testing.assert_array_equal(fr.shape_norm, gnorm_op(fr.shape_hat))
        np.testing.assert_allclose(fr.shape_norm, gnorm_coord(fr, shape_operator(fr)), rtol=1e-13)
        assert fr.shape_norm is fr.shape_norm

    @pytest.mark.parametrize("name", SIX_SEEDS)
    def test_stored_inverse_and_connection_on_seed_grids(self, name):
        # C^{-1} inverts C, E = C^{-1} f_* has orthonormal rows, and the
        # frame keeps Gamma_hat, read off E by ``christoffel``
        fr = seed_bundle(name).frame
        G = fr.metric
        miss = np.abs(fr.chol_inv @ fr.chol - np.eye(fr.d)).max(axis=(-2, -1))
        assert np.all(miss <= 1e-13 * np.linalg.cond(G))
        E = fr.tangent_rows
        assert np.abs(E @ np.swapaxes(E, -1, -2) - np.eye(fr.d)).max() <= 1e-13
        np.testing.assert_array_equal(fr.christoffel_hat, christoffel(fr.jet, fr.tangent_rows))
        assert fr.chol_inv is fr.chol_inv and fr.christoffel_hat is fr.christoffel_hat

    @pytest.mark.parametrize("name", SIX_SEEDS + ("enneper-r1e12",))
    def test_pieces_match_solve_references(self, name):
        # A_hat, Gamma_hat and ||A||_G in the orthonormal frame against A
        # and the Christoffels from solves of G, taken to the frame, and the
        # norm from a solve of L, each within 8 eps cond(G) per point,
        # relative to the largest entry of the reference
        fr = seed_bundle(name).frame
        G, L, jet, d = fr.metric, fr.chol, fr.jet, fr.d
        bound = 8 * np.finfo(float).eps * np.linalg.cond(G)
        A = np.linalg.solve(G, fr.second_form)
        proj = np.einsum("...ijc,...lc->...lij", jet.d2, jet.d1).reshape(-1, d, d * d)
        gam = np.einsum("...qk,...qij->...kij", L, np.linalg.solve(G, proj).reshape(-1, d, d, d))
        # ||C^T A C^{-T}||_F as the norm of its transpose, solved against C
        norm = np.linalg.norm(np.linalg.solve(L, np.swapaxes(A, -1, -2) @ L), axis=(-2, -1))
        for got, want in ((fr.shape_hat, in_frame(fr, A)), (fr.christoffel_hat, gam), (fr.shape_norm[:, None], norm[:, None])):
            axes = tuple(range(1, want.ndim))
            miss = np.abs(got - want).max(axis=axes)
            assert np.all(miss <= bound * np.abs(want).max(axis=axes))

    def test_non_hypersurface_codimension_rejected(self):
        bad = Jet2(
            coords=np.zeros(2),
            value=np.zeros(4),
            d1=np.zeros((2, 4)),
            d2=np.zeros((2, 2, 4)),
        )
        with pytest.raises(DomainError):
            point_frame(bad)

    def test_ellipse_support_function(self):
        a, b = 1.5, 0.8
        chart = ellipse_chart(a, b)
        for t in (0.4, 1.3, 2.6):
            fr = point_frame(chart.jet([t]))
            support = float(fr.jet.value @ fr.normal)
            assert support == pytest.approx(ellipse_support(a, b, t), rel=1e-12)


class TestLazyEigenData:
    """Only a reader of the eigen-data pays for an eigen-decomposition, and
    only ``rank_and_nullity`` reads it: the frame's products and every
    shape row are polynomial in A_hat."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            routine = getattr(np.linalg, name)

            def counted(a, *args, routine=routine, **kwargs):
                calls.append(a.shape)
                return routine(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    def test_export_never_decomposes(self, tmp_path, m4r5_seed, eigh_calls):
        spec = SliceSpec(counts=(6, 6), field_name="ftheta", theta=0.3)
        export_slice(m4r5_seed, spec, tmp_path / "s.obj", tmp_path / "s.csv")
        assert eigh_calls == []

    def test_default_verify_never_decomposes(self, m4r5_seed, eigh_calls):
        run_suites(build_bundle(m4r5_seed))
        assert eigh_calls == []

    def test_repeated_reads_return_the_same_arrays(self, m4r5_chart, eigh_calls):
        fr = point_frame(m4r5_chart.jet(np.array([[0.1, 0.2, 0.05, -0.1], [0.0, 0.1, 0.2, 0.0]])))
        names = ("tangent_rows", "shape_hat", "christoffel_hat", "shape_range")
        first = [getattr(fr, name) for name in names]
        assert all(getattr(fr, name) is got for name, got in zip(names, first))
        assert eigh_calls == []
        assert rank_and_nullity(fr).rank.tolist() == [2, 2]
        assert eigh_calls == [(2, 4, 4)]


def random_partials(rng, npts: int, d: int) -> np.ndarray:
    """(P, d, d+1) first partials: each point's condition number is
    log-uniform in [1, c], c one of 1e3, 1e7, 1e9 and 1e12 per stack, and its
    scale is 2^k, with k drawn around one center in [-600, 600].  In two stacks of three, points at random
    positions are rank-deficient (one in eight or one in fifty)."""
    u = np.linalg.qr(rng.standard_normal((npts, d, d)))[0]
    v = np.linalg.qr(rng.standard_normal((npts, d + 1, d + 1)))[0][..., :d, :]
    cond = 10.0 ** rng.uniform(0.0, rng.choice([3.0, 7.0, 9.0, 12.0]), (npts, 1))
    d1 = (u * (cond ** -np.linspace(0.0, 1.0, d))[:, None, :]) @ v
    spread = rng.choice([0.0, 30.0, 300.0])
    k = np.rint(rng.uniform(-600.0, 600.0) + rng.uniform(-spread, spread, npts))
    d1 = np.ldexp(d1, k.astype(int)[:, None, None])
    flat = rng.random(npts) < rng.choice([0.0, 0.02, 0.125])
    # a rounded multiple of the first row: G is singular only up to rounding
    d1[flat, -1] = 0.0 if d == 1 else rng.uniform(0.5, 2.0, (flat.sum(), 1)) * d1[flat, 0]
    return d1


def check_outcome(check, jet):
    """The error type and message ``check`` raises on ``jet`` (warnings are
    errors), or None."""
    try:
        check(jet)
    except (NonImmersionPointError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)
    return None


class TestRegularityCheck:
    """The SVD runs only on the points a Cholesky bound cannot clear, and the
    check raises exactly where the full SVD of every point does."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_matches_the_full_svd_check(self, d, svd_calls):
        rng = np.random.default_rng(d)
        seen, subsets = set(), 0
        for _ in range(60):
            npts = int(rng.choice([1, 7, 144]))
            d1 = random_partials(rng, npts, d)
            jet = Jet2(
                rng.standard_normal((npts, d)), np.zeros((npts, d + 1)), d1, np.zeros((npts, d, d, d + 1))
            )
            single = Jet2(*(a[0] for a in (jet.coords, jet.value, jet.d1, jet.d2)))
            for j in (single, jet):
                want = check_outcome(point_frame_full_svd, j)
                svd_calls.clear()
                assert check_outcome(point_frame, j) == want
                seen.add(want and (want[0], want[1].split(" at ")[0]))
            # the stack's SVD, if any, took only some of its points
            subsets += any(shape[0] < npts for shape in svd_calls)
        assert subsets and {None, ("NonImmersionPointError", "first partials are dependent")} <= seen

    def test_rounded_dependence_is_never_cleared(self):
        # a rounded multiple of the first row leaves G singular up to
        # rounding; when G still has a Cholesky factor, its bound reads
        # about 1e8, which must not clear the point
        rng = np.random.default_rng(5)
        for _ in range(400):
            d1 = rng.standard_normal((2, 3))
            d1[1] = rng.uniform(0.5, 2.0) * d1[0]
            with pytest.raises(NonImmersionPointError, match="dependent"):
                point_frame(Jet2(np.zeros(2), np.zeros(3), d1, np.zeros((2, 2, 3))))

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_default_verify_takes_no_svd(self, name, svd_calls):
        run_suites(build_bundle(builtin_seed(name)))
        assert svd_calls == []

    def test_default_export_takes_no_svd(self, tmp_path, m4r5_seed, svd_calls):
        export_slice(m4r5_seed, SliceSpec(), tmp_path / "s.obj", tmp_path / "s.csv")
        assert svd_calls == []

    def test_only_an_ill_conditioned_point_takes_the_svd(self, svd_calls):
        # cond 1e9 has a Cholesky factor but fails the bound; its neighbours clear
        good = graph_jet(1.0)
        near = dataclasses.replace(good, d1=np.array([[1.0, 0, 0], [0, 1e-9, 0]]))
        coords = np.array([[0.0, 0.0], [7.25, -3.5], [1.0, 1.0]])
        stack = [good, near, good]
        jet = Jet2(coords, *(np.stack([getattr(j, k) for j in stack]) for k in ("value", "d1", "d2")))
        with pytest.raises(NonImmersionPointError, match="dependent at " + re.escape(str(coords[1]))):
            point_frame(jet)
        assert svd_calls == [(1, 2, 3)]


class TestRank:
    def test_plane_has_rank_zero(self):
        fr = point_frame(plane_chart().jet([0.2, -0.4]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (0, 2)
        assert rank_two_residual(fr) == 1.0

    def test_sphere_has_full_rank(self):
        res = rank_and_nullity(point_frame(sphere_chart().jet([0.5, 1.0])))
        assert (res.rank, res.nullity) == (2, 0)
        assert not res.indeterminate

    def test_m4r5_has_rank_two(self, m4r5_chart):
        fr = point_frame(m4r5_chart.jet([0.1, 0.05, 0.2, -0.1]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (2, 2)
        # I - Pi projects onto the relative nullity, which A_hat kills
        null = np.eye(4) - fr.shape_range[0]
        assert np.trace(null) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(fr.shape_hat @ null, 0.0, atol=1e-12 * np.abs(fr.shape_hat).max())
        assert rank_two_residual(fr) < 1e-15

    def test_band_value_warns_and_flags(self):
        fr = point_frame(graph_jet(1e-7))
        with pytest.warns(IndeterminateRankWarning):
            res = rank_and_nullity(fr)
        assert res.indeterminate

    def test_stack_warns_once_and_flags_each_point(self):
        lams = (1e-7, 1e-7, -1.0, 1e-12)
        jets = [graph_jet(lam) for lam in lams]
        stack = Jet2(*(np.stack([getattr(j, k) for j in jets]) for k in ("coords", "value", "d1", "d2")))
        with pytest.warns(IndeterminateRankWarning) as caught:
            res = rank_and_nullity(point_frame(stack))
        assert len(caught) == 1
        assert res.indeterminate.tolist() == [True, True, False, False]
        assert res.rank[2:].tolist() == [2, 1]

    def test_clearly_separated_value_is_silent(self):
        import warnings

        fr = point_frame(graph_jet(1e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (1, 1)
        np.testing.assert_allclose(shape_operator(fr) @ [0.0, 1.0], 0.0, atol=1e-11)
        assert rank_two_residual(fr) == 1.0

    def test_cylinder_over_ellipse_has_rank_one(self):
        chart = ProductChart(profile=ellipse_chart(), extra=1)
        fr = point_frame(chart.jet([1.0, 0.2]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (1, 1)
        # the flat factor spans the nullity, and the rank row reads a miss
        np.testing.assert_allclose(shape_operator(fr) @ [0.0, 1.0], 0.0, atol=1e-12)
        assert rank_two_residual(fr) == 1.0


def chol_frame(L: np.ndarray):
    """The frame of a flat jet stack whose first partials are [L | 0], so
    that G = L L^T; L lower triangular with a positive diagonal is its
    Cholesky factor up to roundoff."""
    lead, d = L.shape[:-2], L.shape[-1]
    d1 = np.concatenate([L, np.zeros(lead + (d, 1))], axis=-1)
    return point_frame(Jet2(np.zeros(lead + (d,)), np.zeros(lead + (d + 1,)), d1, np.zeros(lead + (d, d, d + 1))))


class TestNorms:
    def test_euclidean_reduction(self, rng):
        fr = chol_frame(np.eye(3))
        M = rng.standard_normal((3, 3))
        assert gnorm_op(fr.in_frame(M)) == pytest.approx(np.linalg.norm(M, "fro"))

    def test_metric_invariance_of_operator_norm(self):
        # the identity has Frobenius G-norm sqrt(d) in any metric
        fr = chol_frame(np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 2.0]])))
        assert gnorm_op(fr.in_frame(np.eye(2))) == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_operator_norm_is_the_frobenius_norm_of_the_reduced_matrix(self, rng, d):
        raw = rng.standard_normal((64, d, d))
        fr = chol_frame(np.linalg.cholesky(raw @ np.swapaxes(raw, -1, -2) + 0.1 * np.eye(d)))
        chol = fr.chol
        M = rng.standard_normal((64, d, d))
        # ||C^T M C^{-T}||_F as the norm of its transpose, solved against C
        want = np.linalg.norm(np.linalg.solve(chol, np.swapaxes(M, -1, -2) @ chol), axis=(-2, -1))
        np.testing.assert_allclose(gnorm_op(fr.in_frame(M)), want, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(gnorm_op(fr.in_frame(np.zeros_like(M))), 0.0)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_frobenius_norm_against_the_spectral_norm(self, rng, d):
        # between the spectral G-norm and sqrt(d) times it; unchanged when G
        # takes another factor C Q, a homothety lambda^2 G or a change of
        # basis P (G -> P^T G P, M -> P^{-1} M P); sqrt(2) times the spectral
        # norm on a G-self-adjoint rank-2 operator with eigenvalues +-lambda
        eps = np.finfo(float).eps
        raw = rng.standard_normal((64, d, d))
        G = raw @ np.swapaxes(raw, -1, -2) + 0.1 * np.eye(d)
        fr = chol_frame(np.linalg.cholesky(G))
        M = rng.standard_normal((64, d, d))
        got, spectral = gnorm_op(fr.in_frame(M)), gnorm_spectral(fr, M)
        assert np.all(spectral <= got * (1 + 8 * eps))
        assert np.all(got <= math.sqrt(d) * spectral * (1 + 8 * eps))

        Q = np.linalg.qr(rng.standard_normal((64, d, d)))[0]
        # the frame matrix reads only the factor of G and its inverse
        turned = SimpleNamespace(chol=fr.chol @ Q, chol_inv=np.swapaxes(Q, -1, -2) @ fr.chol_inv)
        np.testing.assert_allclose(gnorm_op(in_frame(turned, M)), got, rtol=1e-12, atol=0)
        P = rng.standard_normal((64, d, d)) + d * np.eye(d)
        for lam in (1e-8, 1.0, 1e8):
            moved = chol_frame(np.linalg.cholesky(lam**2 * np.swapaxes(P, -1, -2) @ G @ P))
            np.testing.assert_allclose(gnorm_op(moved.in_frame(np.linalg.solve(P, M @ P))), got, rtol=1e-10, atol=0)

        lam = rng.uniform(0.5, 2.0, size=64)[:, None, None]
        reduced = Q[..., :2] @ (lam * np.diag([1.0, -1.0])) @ np.swapaxes(Q[..., :2], -1, -2)
        pm = np.swapaxes(fr.chol_inv, -1, -2) @ reduced @ np.swapaxes(fr.chol, -1, -2)  # C^{-T} R C^T
        np.testing.assert_allclose(gnorm_spectral(fr, pm), lam[:, 0, 0], rtol=1e-12)
        np.testing.assert_allclose(gnorm_op(fr.in_frame(pm)), math.sqrt(2.0) * gnorm_spectral(fr, pm), rtol=1e-12)

    @pytest.mark.parametrize("name", ["enneper", "m4r5"])
    def test_shape_norm_is_sqrt2_times_the_spectral_norm_on_minimal_kaehler_charts(self, name):
        # A is G-self-adjoint of rank 2 with eigenvalues +-lambda
        fr = seed_bundle(name).frame
        A = shape_operator(fr)
        np.testing.assert_allclose(fr.shape_norm, math.sqrt(2.0) * gnorm_spectral(fr, A), rtol=1e-12)


def _hat_christoffel(frame, gam):
    """Gamma_hat[k, i, j] = (C^T Gamma_ij)_k of coordinate Christoffels."""
    return np.einsum("qk,qij->kij", frame.chol, gam)


class TestChristoffel:
    """The frame's Gamma_hat against coordinate Christoffel symbols taken to
    the orthonormal frame."""

    def test_polar_plane_matches_closed_form(self):
        chart = polar_plane_chart()
        for r, t in ((1.3, 0.7), (0.8, 0.4)):
            fr = point_frame(chart.jet([r, t]))
            np.testing.assert_allclose(fr.christoffel_hat, _hat_christoffel(fr, polar_christoffel(r)), atol=1e-12)

    def test_flat_chart_is_torsion_free_zero(self):
        gam = point_frame(plane_chart().jet([0.1, 0.3])).christoffel_hat
        np.testing.assert_allclose(gam, 0.0, atol=1e-10)

    @pytest.mark.parametrize("name", ["m4r5", "n3"])
    def test_jets_match_fd_reference(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        for p in random_points(shrink_box(chart.box, 0.8), 3, rng):
            fr = point_frame(chart.jet(p))
            gam = fr.christoffel_hat
            ref = _hat_christoffel(fr, fd_christoffel(chart, p))
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(gam, ref, rtol=0.0, atol=1e-8 * scale)
            np.testing.assert_array_equal(gam, gam.transpose(0, 2, 1))

    def test_metric_of_matches_jets(self, catenoid_chart):
        p = [0.2, -0.1]
        d1 = catenoid_chart.jet(np.asarray(p)).d1
        np.testing.assert_array_equal(metric_of(catenoid_chart, p), d1 @ d1.T)


def scalar_jets(fn, p) -> tuple:
    """(value, gradient, Hessian) of a scalar Taylor formula at p."""
    gam = fn(Taylor.variables(np.asarray(p, dtype=np.float64), 2))
    return gam.value, gam.derivatives(1), gam.derivatives(2)


class TestScalarCalculus:
    def test_fd_jet_on_quadratic(self):
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([0.3, -0.7])

        def fn(p):
            return 0.5 * p @ A @ p + b @ p + 2.0

        p = np.array([0.4, -0.2])
        val, grad, hess = fd_jet(fn, p)
        assert val == pytest.approx(fn(p))
        np.testing.assert_allclose(grad, A @ p + b, atol=1e-9)
        np.testing.assert_allclose(hess, A, atol=1e-6)

    def test_laplacian_flat_cartesian(self):
        p = np.array([0.2, 0.1])
        _, grad, hess = scalar_jets(lambda x: (x * x).sum(-1), p)
        val = laplace_beltrami(PointFrame(plane_chart().jet(p)), grad, hess)
        assert val == pytest.approx(4.0, abs=1e-13)

    def test_laplacian_flat_polar(self):
        # same function r^2 = x^2 + y^2 expressed in polar coordinates;
        # the Christoffel correction must reproduce Delta = 4
        p = np.array([1.1, 0.6])
        _, grad, hess = scalar_jets(lambda x: x[..., 0] * x[..., 0], p)
        val = laplace_beltrami(PointFrame(polar_plane_chart().jet(p)), grad, hess)
        assert val == pytest.approx(4.0, abs=1e-13)

    def test_sphere_degree_one_harmonic(self):
        chart = sphere_chart()
        pts = np.array([[0.5, 1.2], [0.9, 1.7]])
        val, grad, hess = scalar_jets(lambda x: chart.fn(x)[..., 2], pts)
        got = laplace_beltrami(PointFrame(chart.jet(pts)), grad, hess)
        np.testing.assert_allclose(got, sphere_harmonic_eigencheck(val), rtol=0.0, atol=1e-13)


class TestCurvatureIdentities:
    def test_weingarten_on_sphere(self):
        assert weingarten_residual(sphere_chart(), [0.6, 1.3]) < 1e-9

    def test_weingarten_on_catenoid(self, catenoid_chart):
        assert weingarten_residual(catenoid_chart, [0.15, -0.1]) < 1e-9

    def test_codazzi_for_sphere_shape_operator(self):
        # A = I on the unit sphere, so its form H is G, with d_i H = d_i G
        # from the jet, and only roundoff remains
        chart = sphere_chart()
        p = [0.7, 1.2]
        fr = point_frame(chart.jet(p))
        assert codazzi_residual(fr, fr.second_form, metric_derivative(fr.jet)) < 1e-15

    def test_covariant_derivative_of_metric_vanishes(self):
        # nabla G = 0, so its Codazzi derivative vanishes, in polar coordinates
        # where G and its Christoffel terms do not
        fr = point_frame(polar_plane_chart().jet([1.2, 0.5]))
        nab = covariant_field_derivative(fr, fr.metric, metric_derivative(fr.jet))
        np.testing.assert_allclose(nab[0], 0.0, atol=1e-12)
        assert np.abs(nab[1:]).max() > 0.1
        # with d_i G dropped, D is the antisymmetrized Christoffel term
        # alone, and codazzi_b reads it against that term: 2, not inf
        assert codazzi_residual(fr, fr.metric, 0.0) == pytest.approx(2.0, rel=1e-12)


class TestRelative:
    def test_positive_scale_is_the_plain_quotient(self):
        rng = np.random.default_rng(35)
        num = rng.lognormal(-20.0, 8.0, 200)
        scale = rng.lognormal(0.0, 8.0, 200)
        assert np.array_equal(relative(num, scale), num / scale)

    def test_zero_and_nonfinite_scales(self):
        got = relative([0.0, 3.0, 0.0, 2.0, 1.0, np.nan], [0.0, 0.0, np.inf, np.nan, -np.inf, 1.0])
        # 0/0: the identity holds exactly; x/0: a violation with nothing to
        # measure it against; a non-finite scale, and a NaN residual, read NaN
        assert got[:2].tolist() == [0.0, math.inf]
        assert np.isnan(got[2:]).all()


class TestMinimalityResidual:
    def test_trace_over_operator_norm(self):
        # the graph of (x^2 + lam y^2) / 2 has A = diag(1, lam) at the
        # origin, Frobenius G-norm sqrt(1 + lam^2)
        assert minimality_residual(point_frame(graph_jet(-1.0))) == 0.0
        assert minimality_residual(point_frame(graph_jet(0.5))) == pytest.approx(1.5 / math.sqrt(1.25), rel=1e-14)
        sphere = point_frame(sphere_chart().jet([0.5, 1.2]))  # A = +Identity
        assert minimality_residual(sphere) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_shape_operator_gives_zero(self, enneper_chart):
        assert minimality_residual(point_frame(plane_chart().jet([0.0, 0.0]))) == 0.0
        assert minimality_residual(point_frame(enneper_chart.jet([0.2, 0.1]))) < 1e-12


class TestKaehlerResiduals:
    def test_minimal_chart_anticommutes(self, enneper_chart, m4r5_chart):
        for chart, p in ((enneper_chart, [0.2, 0.1]), (m4r5_chart, [0.1, 0.05, 0.1, 0.2])):
            fr = point_frame(chart.jet(p))
            J = chart_complex_structure(chart.d)
            assert anticommutation_residual(fr, J) < 1e-12

    def test_sphere_fails_anticommutation(self):
        fr = point_frame(sphere_chart().jet([0.5, 1.2]))
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert anticommutation_residual(fr, J) > 0.5

    def test_zero_shape_operator_gives_zero_residual(self):
        fr = point_frame(plane_chart().jet([0.0, 0.0]))
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert anticommutation_residual(fr, J) == 0.0

    def test_chart_structure_parallel_on_kaehler_chart(self, enneper_chart):
        from minkaehler.geometry import parallel_J_residual

        J = chart_complex_structure(2)
        assert parallel_J_residual(point_frame(enneper_chart.jet([0.2, -0.1])), J) < 1e-7

    def test_constant_matrix_not_parallel_in_polar_coordinates(self):
        from minkaehler.geometry import parallel_J_residual

        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert parallel_J_residual(point_frame(polar_plane_chart().jet([1.2, 0.6])), J) > 1e-2


class TestSampling:
    def test_grid_shape_and_bounds(self):
        box = np.array([[0.0, 1.0], [-1.0, 1.0]])
        pts = grid_points(box, [3, 4])
        assert pts.shape == (12, 2)
        assert pts.min(axis=0) == pytest.approx(box[:, 0])
        assert pts.max(axis=0) == pytest.approx(box[:, 1])

    def test_grid_count_broadcast_and_errors(self):
        box = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert grid_points(box, 3).shape == (9, 2)
        with pytest.raises(DomainError):
            grid_points(box, [3, 4, 5])
        with pytest.raises(DomainError):
            grid_points(box, [1, 4])

    def test_random_points_inside_box(self, rng):
        box = np.array([[-0.5, 0.5], [2.0, 3.0]])
        pts = random_points(box, 50, rng)
        assert pts.shape == (50, 2)
        assert (pts >= box[:, 0]).all() and (pts <= box[:, 1]).all()

    def test_shrink_box_keeps_center(self):
        box = np.array([[0.0, 4.0], [-2.0, 2.0]])
        small = shrink_box(box, 0.5)
        np.testing.assert_allclose(small, [[1.0, 3.0], [-1.0, 1.0]])


class TestFDJetOracle:
    def test_matches_analytic_sphere_jets(self):
        chart = sphere_chart()
        p = np.array([0.8, 1.4])
        exact = chart.jet(p)
        _, d1, d2 = fd_jet(chart.value, p)
        np.testing.assert_allclose(d1, exact.d1, atol=1e-9)
        np.testing.assert_allclose(d2, exact.d2, atol=1e-6)

    def test_frames_agree_through_fd_jets(self):
        p = np.array([0.6, 1.1])
        fr = point_frame(Jet2(p, *fd_jet(sphere_chart().value, p)))
        np.testing.assert_allclose(fr.shape_hat, np.eye(2), atol=1e-5)


class _Bundle:
    """The attributes the closed-form control jet reads."""

    def __init__(self, chart, points):
        self.chart, self.d, self.points = chart, chart.d, points


class _ControlField(ImmersionChart):
    """bending_tpar's control field x0^2 e0 + x1^2 e1 over the box of the
    4-d plane chart, from its closed-form jet."""

    def __init__(self):
        self.base = plane_chart(4)
        self.d, self.ambient, self.box = self.base.d, self.base.ambient, self.base.box

    def jet_batch(self, pts, order: int = 2) -> tuple:
        jet = _quadratic_control_jet(_Bundle(self.base, pts))
        return (jet.value, jet.d1, jet.d2)[: order + 1]


@pytest.mark.parametrize("name", SIX_SEEDS)
def test_control_jet_matches_its_taylor_formula(name):
    # the closed form is the Taylor formula's jet to the bit, so the
    # bending_tpar_control rows it feeds keep their bytes
    bundle = seed_bundle(name)

    def fn(x):
        return Taylor.stack([x[..., 0] * x[..., 0], x[..., 1] * x[..., 1]] + [0.0] * (bundle.chart.ambient - 2))

    want = TaylorChart(bundle.d, bundle.chart.ambient, bundle.chart.box, fn).jet(bundle.points)
    got = _quadratic_control_jet(bundle)
    for part in ("coords", "value", "d1", "d2"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


def _gauss_image(data):
    """The chart x -> g(x) of a Gauss datum."""
    return TaylorChart(data.d, data.ambient, data.box, lambda x: data.fn(x)[0])


def _closed_form_charts():
    cylinder = ProductChart(profile=ellipse_chart(), extra=1)
    return {
        "sphere": sphere_chart(),
        "plane": plane_chart(3),
        "polar_plane": polar_plane_chart(),
        "ellipse": ellipse_chart(),
        "cylinder": cylinder,
        "cylinder_bending": make_cylinder_bending(cylinder, 1.5, 0.8),
        "bending_tpar_control": _ControlField(),
        "geodesic_sphere": _gauss_image(geodesic_sphere_surface()),
        "clifford_torus": _gauss_image(clifford_torus_surface()),
    }


class TestTaylorCharts:
    """Every closed-form chart keeps only its value formula; its exact jets
    must match central differences of that formula."""

    @pytest.mark.parametrize("name", sorted(_closed_form_charts()))
    def test_jets_match_fd_oracle(self, name, rng):
        chart = _closed_form_charts()[name]
        for p in random_points(shrink_box(chart.box, 0.8), 3, rng):
            exact = chart.jet(p)
            _, d1, d2 = fd_jet(chart.value, p)
            np.testing.assert_allclose(exact.d1, d1, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(exact.d2, d2, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(_closed_form_charts()))
    def test_value_is_the_jets_value_to_the_bit(self, name, rng):
        chart = _closed_form_charts()[name]
        pts = random_points(shrink_box(chart.box, 0.8), 4, rng).reshape(2, 2, chart.d)
        np.testing.assert_array_equal(chart.value(pts), chart.jet(pts).value)

    def test_third_partials_match_fd_of_second(self, rng):
        chart = sphere_chart()
        p = random_points(shrink_box(chart.box, 0.8), 1, rng)[0]
        d3 = chart.jet_batch(p[None], 3)[3][0]
        _, fd, _ = fd_jet(lambda q: chart.jet(q).d2, p)
        np.testing.assert_allclose(d3, np.moveaxis(fd, 0, -2), rtol=0.0, atol=1e-9)
