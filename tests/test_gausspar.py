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
    FD_STEP_NOISY,
    SphereSurface,
    SupportFunction,
    clifford_torus_surface,
    constant_support,
    extract_from_hypersurface,
    gauss_map_identity_residual,
    gauss_param,
    gauss_round_trip,
    geodesic_sphere_surface,
    leaf_directions,
    linear_support,
    minimality_criterion,
    rebuild_surface,
    second_legendre_support,
)
from minkaehler.geometry import point_frame

from oracles import ellipse_support


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
        broken = SphereSurface(
            chart=geodesic.chart,
            frame_fn=lambda p: np.array([[0.0, 0.0, 0.0, 2.0]]),
        )
        with pytest.raises(PreconditionError):
            broken.verify([[0.5, 1.2]])

    def test_frame_shape_is_enforced(self, geodesic):
        bad = SphereSurface(chart=geodesic.chart, frame_fn=lambda p: np.zeros((2, 4)))
        with pytest.raises(DomainError):
            bad.frame([0.5, 1.2])

    def test_fd_frame_derivative_matches_analytic(self, clifford):
        p = np.array([0.8, 1.1])
        analytic = clifford.frame_d1(p)
        fd = SphereSurface(chart=clifford.chart, frame_fn=clifford.frame_fn).frame_d1(p)
        np.testing.assert_allclose(fd, analytic, atol=1e-9)


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
        for q in surface_grid(surface, 2):
            for w in (-0.2, 0.0, 0.3):
                res = gauss_map_identity_residual(chart, surface, np.append(q, w))
                assert res < 1e-7

    @pytest.mark.parametrize("maker", ["geodesic", "clifford"])
    def test_minimal_support_gives_minimal_chart(self, maker, request):
        surface = request.getfixturevalue(maker)
        gamma = self._minimal_support(maker, surface)
        pairs = minimality_criterion(surface, gamma, surface_grid(surface, 2))
        for pair in pairs:
            assert pair.trace_residual < 2e-6
            assert pair.eigen_residual < 2e-6

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
        for pair in pairs:
            assert pair.trace_residual > 1e-2
            assert pair.eigen_residual == pytest.approx(2.0, abs=1e-9)

    def test_support_identity_along_fibers(self, clifford):
        # <Psi, g> = gamma for every fiber coordinate
        gamma = linear_support(clifford, [0.5, 0.1, -0.2, 0.3])
        chart = gauss_param(clifford, gamma)
        q = np.array([0.9, 1.3])
        g = clifford.g_jet(q).value
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
                res.gauss_section(q), res.normals[ci], atol=1e-9
            )
            assert res.support_section(q) == pytest.approx(res.supports[ci], abs=1e-9)

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
        # plane and support come out at roundoff: the rebuilt point is
        # gamma g + grad gamma + 0 with every ingredient from closed jets
        assert res.plane_distance < 1e-10
        assert res.support_mismatch < 1e-10
        assert res.gauss_mismatch < 1e-6

    def test_cylinder_round_trip(self, cylinder):
        qpts = grid_points(shrink_box(cylinder.box[:1], 0.8), [4])
        res = gauss_round_trip(cylinder, qpts, quotient_dim=1)
        assert res.plane_distance < 1e-7
        assert res.support_mismatch < 1e-7

    def test_rebuilt_surface_verifies(self, m4r5_chart):
        surface = rebuild_surface(m4r5_chart, quotient_dim=2)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 2)
        # the leaf directions are tangent to the sphere at the normal and
        # orthogonal to the Gauss image's derivative: verified, not assumed
        assert surface.verify(qpts, tol=1e-6) < 1e-7

    def test_leaf_directions_are_orthonormal_and_tangent(self, m4r5_chart):
        q = np.array([0.1, -0.05])
        L = leaf_directions(m4r5_chart, q, quotient_dim=2)
        np.testing.assert_allclose(L.T @ L, np.eye(2), atol=1e-12)
        fr = point_frame(m4r5_chart.jet(np.array([0.1, -0.05, 0.0, 0.0])))
        np.testing.assert_allclose(L.T @ fr.normal, 0.0, atol=1e-12)

    def test_rebuild_needs_fiber_coordinates(self, enneper_chart):
        with pytest.raises(PreconditionError):
            rebuild_surface(enneper_chart, quotient_dim=2)

    def test_rebuilt_first_derivatives_match_differences(self, m4r5_chart):
        surface = rebuild_surface(m4r5_chart, quotient_dim=2)
        chart = surface.chart
        for q in grid_points(shrink_box(chart.box, 0.6), 2):
            jet = chart.jet(q)
            h = 1e-5
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (chart.value_fn(q + e) - chart.value_fn(q - e)) / (2 * h)
                np.testing.assert_allclose(jet.d1[i], fd, atol=1e-8)

    def test_extracted_support_gradient_matches_differences(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        fd_gamma = SupportFunction(fn=res.support_section)
        for q in grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3):
            np.testing.assert_allclose(
                res.support_gradient(q), fd_gamma.gradient(q), atol=1e-8
            )

    def test_reconstruction_satisfies_minimality_bound(self, m4r5_chart):
        # the full loop: extract (g, gamma), rebuild the sphere surface,
        # re-parametrize, and check both sides of the minimality
        # equivalence against the stated 10 h^2 differencing bound
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples, expected_rank=2)
        gamma = SupportFunction(fn=res.support_section, grad_fn=res.support_gradient)
        surface = rebuild_surface(m4r5_chart, quotient_dim=2)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3)
        h = FD_STEP_NOISY
        pairs = minimality_criterion(surface, gamma, qpts, h=h)
        bound = 10 * h * h
        assert max(p.trace_residual for p in pairs) < bound
        assert max(p.eigen_residual for p in pairs) < bound


class TestSupportFunction:
    def test_fd_gradient_matches_analytic(self, clifford):
        gamma_a = linear_support(clifford, [0.7, -0.3, 0.4, 0.2])
        gamma_fd = SupportFunction(fn=gamma_a.fn)
        p = np.array([0.8, 1.2])
        np.testing.assert_allclose(
            gamma_fd.gradient(p), gamma_a.gradient(p), atol=1e-9
        )
