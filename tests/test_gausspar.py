import numpy as np
import pytest

from minkaehler.charts import (
    ProductChart,
    ellipse_chart,
    grid_points,
    shrink_box,
    sphere_chart,
)
from minkaehler.errors import DomainError, NonImmersionPointError, PreconditionError
from minkaehler.gausspar import (
    SphereSurface,
    clifford_torus_surface,
    constant_support,
    extract_from_hypersurface,
    gauss_map_identity_residual,
    gauss_param,
    gauss_round_trip,
    geodesic_sphere_surface,
    linear_support,
    minimality_criterion,
    rebuild_support,
    rebuild_surface,
    second_legendre_support,
)
from minkaehler.geometry import point_frame
from minkaehler.taylor import Taylor

from oracles import ellipse_support, fd_jet


@pytest.fixture(scope="module")
def geodesic():
    return geodesic_sphere_surface()


@pytest.fixture(scope="module")
def clifford():
    return clifford_torus_surface()


@pytest.fixture()
def cylinder():
    return ProductChart(profile=ellipse_chart(), extra=1)


def surface_grid(surface, counts=3):
    return grid_points(shrink_box(surface.box, 0.8), counts)


class TestBuiltinSurfaces:
    def test_geodesic_identities(self, geodesic):
        assert geodesic.verify(surface_grid(geodesic)) < 1e-12

    def test_clifford_identities(self, clifford):
        assert clifford.verify(surface_grid(clifford)) < 1e-12

    def test_fiber_dimensions(self, geodesic, clifford):
        assert geodesic.fiber_dim == 1
        assert clifford.fiber_dim == 1

    def test_broken_frame_is_rejected(self, geodesic):
        broken = SphereSurface(chart=geodesic.chart, frame_fn=lambda x: 2.0 * geodesic.frame_fn(x))
        with pytest.raises(PreconditionError):
            broken.verify([[0.5, 1.2]])

    def test_frame_shape_is_enforced(self, geodesic):
        bad = SphereSurface(chart=geodesic.chart, frame_fn=lambda x: geodesic.frame_fn(x)[..., [0, 0], :])
        with pytest.raises(DomainError):
            bad.frame([0.5, 1.2])

    def test_fd_frame_derivative_matches_analytic(self, clifford):
        p = np.array([0.8, 1.1])
        xi = clifford.frame_fn(Taylor.variables(p, 2))
        _, d1, d2 = fd_jet(clifford.frame, p)
        np.testing.assert_allclose(np.moveaxis(xi.derivatives(1), -1, 0), d1, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(np.moveaxis(xi.derivatives(2), (-2, -1), (0, 1)), d2, rtol=0.0, atol=1e-6)


class TestParametrization:
    @staticmethod
    def _minimal_support(name, surface):
        # The equatorial sphere needs the second Legendre solution: its
        # degree-1 harmonics <a, g> solve the minimality equation too, but
        # gamma g + grad gamma is then the constant point a, so the
        # parametrized hypersurface degenerates (see the regularity test
        # below).  The Clifford torus has no such collapse for linear
        # supports.
        if name == "geodesic":
            return second_legendre_support()
        return linear_support(surface, [0.7, -0.3, 0.4, 0.2])

    @pytest.mark.parametrize("maker", ["geodesic", "clifford"])
    def test_gauss_map_identity(self, maker, request, rng):
        surface = request.getfixturevalue(maker)
        gamma = self._minimal_support(maker, surface)
        chart = gauss_param(surface, gamma)
        q = surface_grid(surface, 2)
        for w in (-0.2, 0.0, 0.3):
            res = gauss_map_identity_residual(chart, surface, np.column_stack([q, np.full(len(q), w)]))
            assert res.max() < 1e-12

    @pytest.mark.parametrize("maker", ["geodesic", "clifford"])
    def test_minimal_support_gives_minimal_chart(self, maker, request):
        surface = request.getfixturevalue(maker)
        gamma = self._minimal_support(maker, surface)
        pairs = minimality_criterion(surface, gamma, surface_grid(surface, 2))
        assert pairs.trace_residual.max() < 5e-13
        assert pairs.eigen_residual.max() < 5e-14

    def test_degenerate_support_is_detected(self, geodesic):
        # On the equatorial sphere grad <a, g> = a - <a, g> g, so the base
        # part of the parametrization is the constant vector a and the map
        # cannot be an immersion; the regularity probe must say so.
        gamma = linear_support(geodesic, [0.7, -0.3, 0.4, 0.2])
        with pytest.raises(NonImmersionPointError):
            gauss_param(geodesic, gamma)

    def test_constant_support_is_not_minimal(self, geodesic):
        gamma = constant_support(1.0)
        pairs = minimality_criterion(geodesic, gamma, surface_grid(geodesic, 2))
        assert pairs.trace_residual.min() > 1e-2
        np.testing.assert_allclose(pairs.eigen_residual, 2.0, rtol=0.0, atol=1e-9)

    def test_support_identity_along_fibers(self, clifford):
        # <Psi, g> = gamma for every fiber coordinate
        gamma = linear_support(clifford, [0.5, 0.1, -0.2, 0.3])
        chart = gauss_param(clifford, gamma)
        q = np.array([0.9, 1.3])
        g = clifford.chart.value(q)
        for w in (-0.3, 0.0, 0.25):
            psi = chart.value(np.append(q, w))
            assert float(psi @ g) == pytest.approx(gamma.value(q), abs=1e-12)

    def test_no_fiber_direction_is_rejected(self):
        full = SphereSurface(chart=sphere_chart(), frame_fn=lambda p: np.zeros((0, 3)))
        with pytest.raises(PreconditionError):
            gauss_param(full, constant_support(1.0))

    def test_linear_support_coefficient_shape(self, geodesic):
        with pytest.raises(DomainError):
            linear_support(geodesic, [1.0, 0.0])


class TestExtraction:
    def test_m4r5_leaf_clusters(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        assert len(res.clusters) == 9
        assert sorted(len(c) for c in res.clusters) == [4] * 9
        assert res.normal_spread < 1e-9
        assert res.support_spread < 1e-9
        assert res.rank == 2 and res.nullity == 2

    def test_m4r5_sections_match_clusters(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [2, 2, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        # the section at the cluster's base coordinates reproduces its data
        for ci, idx in enumerate(res.clusters):
            q = samples[idx[0]][:2]
            np.testing.assert_allclose(
                res.surface.chart.value(q), res.normals[ci], atol=1e-9
            )
            assert res.support.value(q) == pytest.approx(res.supports[ci], abs=1e-9)

    def test_full_rank_chart_is_rejected(self):
        chart = sphere_chart()
        pts = grid_points(shrink_box(chart.box, 0.5), 2)
        with pytest.raises(PreconditionError, match="no relative nullity"):
            extract_from_hypersurface(chart, pts, expected_rank=2)

    def test_wrong_expected_rank_is_rejected(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.5), 2)
        with pytest.raises(PreconditionError, match="rank"):
            extract_from_hypersurface(m4r5_chart, samples, expected_rank=3)

    def test_cylinder_support_recovers_ellipse_oracle(self, cylinder):
        a, b = 1.5, 0.8
        samples = grid_points(shrink_box(cylinder.box, 0.8), [4, 3])
        res = extract_from_hypersurface(cylinder, samples, expected_rank=1)
        assert len(res.clusters) == 4
        assert res.support_spread < 1e-10
        for ci, idx in enumerate(res.clusters):
            t = samples[idx[0]][0]
            assert res.supports[ci] == pytest.approx(ellipse_support(a, b, t), rel=1e-9)


class TestRoundTrip:
    def test_m4r5_round_trip(self, m4r5_chart):
        qbox = shrink_box(m4r5_chart.box[:2], 0.6)
        qpts = grid_points(qbox, 3)
        res = gauss_round_trip(m4r5_chart, qpts, quotient_dim=2)
        # all three come out at roundoff: the rebuilt chart's jets are
        # exact, every ingredient read from the source chart's 4-jets
        assert res.plane_distance.max() < 1e-14
        assert res.support_mismatch.max() < 1e-14
        assert res.gauss_mismatch.max() < 1e-14

    def test_cylinder_round_trip(self, cylinder):
        qpts = grid_points(shrink_box(cylinder.box[:1], 0.8), [4])
        res = gauss_round_trip(cylinder, qpts, quotient_dim=1)
        assert res.plane_distance.max() < 1e-14
        assert res.support_mismatch.max() < 1e-14
        assert res.gauss_mismatch.max() < 1e-14

    def test_rebuilt_surface_verifies(self, m4r5_chart):
        surface = rebuild_surface(m4r5_chart, quotient_dim=2)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 2)
        # the leaf directions are tangent to the sphere at the normal and
        # orthogonal to the Gauss image's derivative: verified, not assumed
        assert surface.verify(qpts, tol=1e-14) < 1e-14

    def test_leaf_directions_are_orthonormal_and_tangent(self, m4r5_chart):
        q = np.array([0.1, -0.05])
        L = rebuild_surface(m4r5_chart, quotient_dim=2).frame(q)
        np.testing.assert_allclose(L @ L.T, np.eye(2), atol=1e-12)
        fr = point_frame(m4r5_chart.jet(np.array([0.1, -0.05, 0.0, 0.0])))
        np.testing.assert_allclose(L @ fr.normal, 0.0, atol=1e-12)
        # the rows span the fiber partials, the leaf's tangent directions
        fiber = fr.jet.d1[2:]
        np.testing.assert_allclose(fiber - (fiber @ L.T) @ L, 0.0, atol=1e-12)

    def test_rebuild_needs_fiber_coordinates(self, enneper_chart):
        with pytest.raises(PreconditionError):
            rebuild_surface(enneper_chart, quotient_dim=2)

    def test_rebuilt_first_derivatives_match_differences(self, m4r5_chart):
        surface = rebuild_surface(m4r5_chart, quotient_dim=2)
        chart = surface.chart
        for q in grid_points(shrink_box(chart.box, 0.6), 2):
            jet = chart.jet(q)
            _, d1, d2 = fd_jet(chart.value, q)
            np.testing.assert_allclose(jet.d1, d1, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(jet.d2, d2, rtol=0.0, atol=1e-6)
            # the leaf frame's partials too
            xi = surface.frame_fn(Taylor.variables(q, 1)).derivatives(1)
            _, fd, _ = fd_jet(surface.frame, q)
            np.testing.assert_allclose(np.moveaxis(xi, -1, 0), fd, rtol=0.0, atol=1e-9)

    def test_extracted_support_gradient_matches_differences(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        for q in grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3):
            gam = res.support.fn(Taylor.variables(q, 2))
            _, grad, hess = fd_jet(res.support.value, q)
            np.testing.assert_allclose(gam.derivatives(1), grad, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(gam.derivatives(2), hess, rtol=0.0, atol=1e-6)

    def test_reconstruction_satisfies_minimality_bound(self, m4r5_chart):
        # the full loop: extract (g, gamma), rebuild the sphere surface,
        # re-parametrize, and check both sides of the minimality
        # equivalence at roundoff, every jet exact
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3)
        pairs = minimality_criterion(res.surface, res.support, qpts)
        assert pairs.trace_residual.max() < 1e-13
        assert pairs.eigen_residual.max() < 1e-14


class TestSupportFunction:
    def test_fd_gradient_matches_analytic(self, clifford):
        p = np.array([0.8, 1.2])
        for gamma in (linear_support(clifford, [0.7, -0.3, 0.4, 0.2]), second_legendre_support()):
            exact = gamma.fn(Taylor.variables(p, 2))
            value, grad, hess = fd_jet(gamma.value, p)
            assert exact.value == value
            np.testing.assert_allclose(exact.derivatives(1), grad, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(exact.derivatives(2), hess, rtol=0.0, atol=1e-6)

    def test_rebuilt_support_is_the_chart_support(self, m4r5_chart):
        # gamma = <f, N> at the zero-fiber point, from the rebuilt section
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 2)
        fr = point_frame(m4r5_chart.jet(np.column_stack([qpts, np.zeros((len(qpts), 2))])))
        want = np.einsum("pc,pc->p", fr.jet.value, fr.normal)
        got = rebuild_support(m4r5_chart, quotient_dim=2).value(qpts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
