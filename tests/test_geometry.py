import dataclasses
import re

import numpy as np
import pytest

from minkaehler.bending import make_cylinder_bending
from minkaehler.charts import (
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
from minkaehler.geometry import (
    anticommutation_residual,
    christoffel,
    codazzi_residual,
    covariant_field_derivative,
    generalized_cross,
    gnorm_columns,
    gnorm_op,
    laplace_beltrami,
    minimality_residual,
    point_frame,
    rank_and_nullity,
)
from minkaehler.export import SliceSpec, export_slice
from minkaehler.gausspar import clifford_torus_surface, geodesic_sphere_surface
from minkaehler.suites import _quadratic_control_field, build_bundle, run_suites
from minkaehler.taylor import Taylor
from minkaehler.weierstrass import chart_complex_structure

from oracles import (
    SIX_SEEDS,
    ellipse_chart,
    ellipse_support,
    fd_christoffel,
    fd_jet,
    metric_of,
    plane_chart,
    polar_christoffel,
    polar_plane_chart,
    seed_bundle,
    sphere_chart,
    sphere_harmonic_eigencheck,
    weingarten_residual,
)


def graph_jet(lam: float) -> Jet2:
    """Jet of the graph z = (x^2 + lam y^2) / 2 at the origin."""
    d2 = np.zeros((2, 2, 3))
    d2[0, 0, 2] = 1.0
    d2[1, 1, 2] = lam
    return Jet2(
        coords=np.zeros(2),
        value=np.zeros(3),
        d1=np.array([[1.0, 0, 0], [0, 1.0, 0]]),
        d2=d2,
    )


class TestCross:
    def test_r3_right_handed(self):
        out = generalized_cross(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
        np.testing.assert_array_equal(out, [0, 0, 1])

    def test_row_swap_flips_sign(self, rng):
        v = rng.standard_normal((3, 4))
        a = generalized_cross(v)
        b = generalized_cross(v[[1, 0, 2]])
        np.testing.assert_allclose(a, -b, atol=1e-14)

    def test_orthogonal_to_all_inputs(self, rng):
        for d in (1, 2, 3, 4):
            v = rng.standard_normal((d, d + 1))
            out = generalized_cross(v)
            np.testing.assert_allclose(v @ out, 0.0, atol=1e-12)

    def test_shape_rejected(self):
        with pytest.raises(DomainError):
            generalized_cross(np.zeros((2, 4)))


class TestPointFrame:
    def test_sphere_is_totally_umbilic(self):
        chart = sphere_chart()
        for p in ([0.5, 1.2], [1.0, 0.8], [0.3, 2.1]):
            fr = point_frame(chart.jet(p))
            np.testing.assert_allclose(fr.shape_operator, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(fr.eigenvalues, [1.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(fr.normal, -fr.jet.value, atol=1e-12)

    def test_eigenvectors_are_g_orthonormal(self):
        fr = point_frame(sphere_chart().jet([0.7, 1.1]))
        v = fr.eigenvectors
        np.testing.assert_allclose(v.T @ fr.metric @ v, np.eye(2), atol=1e-12)

    def test_eigen_order_is_descending_modulus(self):
        fr = point_frame(graph_jet(-3.0))
        assert abs(fr.eigenvalues[0]) >= abs(fr.eigenvalues[1])
        np.testing.assert_allclose(sorted(fr.eigenvalues), [-3.0, 1.0], atol=1e-14)

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
        np.testing.assert_array_equal(fr.shape_norm, gnorm_op(fr, fr.shape_operator))
        assert fr.shape_norm is fr.shape_norm

    @pytest.mark.parametrize("name", SIX_SEEDS)
    def test_stored_inverse_and_connection_on_seed_grids(self, name):
        fr = seed_bundle(name).frame
        G = fr.metric
        miss = np.abs(fr.metric_inv @ G - np.eye(fr.d)).max(axis=(-2, -1))
        assert np.all(miss <= 1e-13 * np.linalg.cond(G))
        np.testing.assert_array_equal(fr.christoffel, christoffel(fr.jet, fr.metric_inv))
        assert fr.metric_inv is fr.metric_inv and fr.christoffel is fr.christoffel

    @pytest.mark.parametrize("name", SIX_SEEDS + ("enneper-r1e12",))
    def test_pieces_match_solve_references(self, name):
        # A, the Christoffels and ||A||_G from the stored inverses of G and
        # L against solves of the same G and L, each within 8 eps cond(G)
        # per point, relative to the largest entry of the reference
        fr = seed_bundle(name).frame
        G, L, jet, d = fr.metric, fr.chol, fr.jet, fr.d
        bound = 8 * np.finfo(float).eps * np.linalg.cond(G)
        A = np.linalg.solve(G, fr.second_form)
        proj = np.einsum("...ijc,...lc->...lij", jet.d2, jet.d1).reshape(-1, d, d * d)
        gam = np.linalg.solve(G, proj).reshape(-1, d, d, d)
        K = np.linalg.solve(L, np.swapaxes(fr.shape_operator, -1, -2) @ L)
        norm = np.sqrt(np.linalg.eigvalsh(K @ np.swapaxes(K, -1, -2))[..., -1])
        for got, want in ((fr.shape_operator, A), (fr.christoffel, gam), (fr.shape_norm[:, None], norm[:, None])):
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
    """Only a reader of the eigen-data pays for the eigen-decomposition."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        return calls

    def test_export_never_decomposes(self, tmp_path, m4r5_seed, eigh_calls):
        spec = SliceSpec(counts=(6, 6), field_name="ftheta", theta=0.3)
        export_slice(m4r5_seed, spec, tmp_path / "s.obj", tmp_path / "s.csv")
        assert eigh_calls == []

    def test_default_verify_decomposes_once(self, m4r5_seed, eigh_calls):
        run_suites(build_bundle(m4r5_seed))
        assert len(eigh_calls) == 1

    def test_repeated_reads_return_the_same_arrays(self, m4r5_chart, eigh_calls):
        fr = point_frame(m4r5_chart.jet(np.array([[0.1, 0.2, 0.05, -0.1], [0.0, 0.1, 0.2, 0.0]])))
        vals, vecs = fr.eigenvalues, fr.eigenvectors
        assert fr.eigenvalues is vals and fr.eigenvectors is vecs
        assert len(eigh_calls) == 1
        np.testing.assert_allclose(fr.shape_operator @ vecs, vecs * vals[:, None, :], atol=1e-12)


class TestRank:
    def test_plane_has_rank_zero(self):
        fr = point_frame(plane_chart().jet([0.2, -0.4]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (0, 2)
        assert res.null_mask.tolist() == [True, True]

    def test_sphere_has_full_rank(self):
        res = rank_and_nullity(point_frame(sphere_chart().jet([0.5, 1.0])))
        assert (res.rank, res.nullity) == (2, 0)
        assert not res.indeterminate

    def test_m4r5_has_rank_two(self, m4r5_chart):
        fr = point_frame(m4r5_chart.jet([0.1, 0.05, 0.2, -0.1]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (2, 2)
        # the relative-nullity directions are G-orthonormal and killed by A
        basis = fr.eigenvectors[:, res.null_mask]
        np.testing.assert_allclose(basis.T @ fr.metric @ basis, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(fr.shape_operator @ basis, 0.0, atol=1e-10)

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
        np.testing.assert_allclose(np.abs(fr.eigenvectors[:, res.null_mask][:, 0]), [0, 1], atol=1e-9)

    def test_cylinder_over_ellipse_has_rank_one(self):
        chart = ProductChart(profile=ellipse_chart(), extra=1)
        fr = point_frame(chart.jet([1.0, 0.2]))
        res = rank_and_nullity(fr)
        assert (res.rank, res.nullity) == (1, 1)
        # the flat factor spans the nullity
        np.testing.assert_allclose(np.abs(fr.eigenvectors[:, res.null_mask][:, 0]), [0, 1], atol=1e-12)


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
        v = rng.standard_normal(3)
        M = rng.standard_normal((3, 3))
        assert gnorm_columns(fr.chol, v[:, None])[0] == pytest.approx(np.linalg.norm(v))
        assert gnorm_op(fr, M) == pytest.approx(np.linalg.norm(M, 2))

    def test_metric_invariance_of_operator_norm(self):
        # the identity has G-operator norm 1 in any metric
        fr = chol_frame(np.linalg.cholesky(np.array([[4.0, 1.0], [1.0, 2.0]])))
        assert gnorm_op(fr, np.eye(2)) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_operator_norm_is_the_spectral_norm_of_the_reduced_matrix(self, rng, d):
        raw = rng.standard_normal((64, d, d))
        fr = chol_frame(np.linalg.cholesky(raw @ np.swapaxes(raw, -1, -2) + 0.1 * np.eye(d)))
        chol = fr.chol
        M = rng.standard_normal((64, d, d))
        want = np.linalg.norm(np.linalg.solve(chol, np.swapaxes(M, -1, -2) @ chol), 2, axis=(-2, -1))
        np.testing.assert_allclose(gnorm_op(fr, M), want, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(gnorm_op(fr, np.zeros_like(M)), 0.0)


class TestChristoffel:
    def test_polar_plane_matches_closed_form(self):
        chart = polar_plane_chart()
        for r, t in ((1.3, 0.7), (0.8, 0.4)):
            gam = point_frame(chart.jet([r, t])).christoffel
            np.testing.assert_allclose(gam, polar_christoffel(r), atol=1e-12)

    def test_flat_chart_is_torsion_free_zero(self):
        gam = point_frame(plane_chart().jet([0.1, 0.3])).christoffel
        np.testing.assert_allclose(gam, 0.0, atol=1e-10)

    @pytest.mark.parametrize("name", ["m4r5", "n3"])
    def test_jets_match_fd_reference(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        for p in random_points(shrink_box(chart.box, 0.8), 3, rng):
            gam = point_frame(chart.jet(p)).christoffel
            ref = fd_christoffel(chart, p)
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
        val = laplace_beltrami(plane_chart().jet(p), grad, hess)
        assert val == pytest.approx(4.0, abs=1e-13)

    def test_laplacian_flat_polar(self):
        # same function r^2 = x^2 + y^2 expressed in polar coordinates;
        # the Christoffel correction must reproduce Delta = 4
        p = np.array([1.1, 0.6])
        _, grad, hess = scalar_jets(lambda x: x[..., 0] * x[..., 0], p)
        val = laplace_beltrami(polar_plane_chart().jet(p), grad, hess)
        assert val == pytest.approx(4.0, abs=1e-13)

    def test_sphere_degree_one_harmonic(self):
        chart = sphere_chart()
        pts = np.array([[0.5, 1.2], [0.9, 1.7]])
        val, grad, hess = scalar_jets(lambda x: chart.fn(x)[..., 2], pts)
        got = laplace_beltrami(chart.jet(pts), grad, hess)
        np.testing.assert_allclose(got, sphere_harmonic_eigencheck(val), rtol=0.0, atol=1e-13)


class TestCurvatureIdentities:
    def test_weingarten_on_sphere(self):
        assert weingarten_residual(sphere_chart(), [0.6, 1.3]) < 1e-9

    def test_weingarten_on_catenoid(self, catenoid_chart):
        assert weingarten_residual(catenoid_chart, [0.15, -0.1]) < 1e-9

    def test_codazzi_for_sphere_shape_operator(self):
        # A = I on the unit sphere, so d_i A = 0 and only roundoff remains
        chart = sphere_chart()
        p = [0.7, 1.2]
        fr = point_frame(chart.jet(p))
        assert codazzi_residual(fr, fr.shape_operator, np.zeros((2, 2, 2))) < 1e-15

    def test_covariant_derivative_of_metric_vanishes(self):
        # nabla G = 0, checked through the (1,1) field G^{-1}G = identity
        chart = polar_plane_chart()
        gam = point_frame(chart.jet([1.2, 0.5])).christoffel
        nab = covariant_field_derivative(gam, np.eye(2), np.zeros((2, 2, 2)))
        np.testing.assert_allclose(nab, 0.0, atol=1e-9)


class TestMinimalityResidual:
    def test_trace_over_operator_norm(self):
        # the graph of (x^2 + lam y^2) / 2 has A = diag(1, lam) at the origin
        assert minimality_residual(point_frame(graph_jet(-1.0))) == 0.0
        assert minimality_residual(point_frame(graph_jet(0.5))) == pytest.approx(1.5, rel=1e-14)
        sphere = point_frame(sphere_chart().jet([0.5, 1.2]))  # A = +Identity
        assert minimality_residual(sphere) == pytest.approx(2.0, rel=1e-12)

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
        np.testing.assert_allclose(fr.shape_operator, np.eye(2), atol=1e-5)


class _Bundle:
    """The one attribute the control-field builder reads."""

    def __init__(self, chart):
        self.chart = chart


def _closed_form_charts():
    cylinder = ProductChart(profile=ellipse_chart(), extra=1)
    return {
        "sphere": sphere_chart(),
        "plane": plane_chart(3),
        "polar_plane": polar_plane_chart(),
        "ellipse": ellipse_chart(),
        "cylinder_bending": make_cylinder_bending(cylinder, 1.5, 0.8),
        "bending_tpar_control": _quadratic_control_field(_Bundle(plane_chart(4))),
        "geodesic_sphere": geodesic_sphere_surface().chart,
        "clifford_torus": clifford_torus_surface().chart,
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

    def test_third_partials_match_fd_of_second(self, rng):
        chart = sphere_chart()
        p = random_points(shrink_box(chart.box, 0.8), 1, rng)[0]
        d3 = chart.jet(p, order=3).d3
        _, fd, _ = fd_jet(lambda q: chart.jet(q).d2, p)
        np.testing.assert_allclose(d3, np.moveaxis(fd, 0, -2), rtol=0.0, atol=1e-9)
