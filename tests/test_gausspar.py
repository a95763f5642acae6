import numpy as np
import pytest

from minkaehler.charts import (
    ProductChart,
    grid_points,
    shrink_box,
)
from minkaehler.errors import DomainError, NonImmersionPointError, PreconditionError
from minkaehler.gausspar import (
    _CLUSTER_TOL,
    GaussDatum,
    _cluster_labels,
    clifford_torus_surface,
    constant_support,
    extract_from_hypersurface,
    gauss_map_identity_residual,
    gauss_param,
    gauss_round_trip,
    geodesic_sphere_surface,
    linear_support,
    minimality_criterion,
    rebuild,
    second_legendre_support,
)
from minkaehler.geometry import point_frame
from minkaehler.seeds import builtin_seed
from minkaehler.taylor import Taylor, TaylorChart
from minkaehler.weierstrass import SeriesChart

from oracles import (
    cluster_labels_loop,
    ellipse_chart,
    ellipse_support,
    fd_jet,
    plane_chart,
    sphere_chart,
)


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


def with_frame(data, frame):
    """``data`` with xi replaced by frame(xi)."""

    def fn(x):
        g, gamma, xi = data.fn(x)
        return g, gamma, frame(xi)

    return GaussDatum(data.d, data.ambient, data.box, fn)


def value(data, part):
    """The values of one part of the datum (0: g, 1: gamma, 2: xi) on a point stack."""
    return lambda p: data.expand(p, 0)[part].value


def checked_param(data):
    """Psi, with the datum's identities verified and Psi's frame built at
    the centre of its box (raises NonImmersionPointError if singular)."""
    chart = gauss_param(data)
    center = chart.box.mean(axis=1)
    data.verify(center[: data.d])
    point_frame(chart.jet(center))
    return chart


class TestBuiltinSurfaces:
    def test_geodesic_identities(self, geodesic):
        assert geodesic.verify(surface_grid(geodesic)) < 1e-12

    def test_clifford_identities(self, clifford):
        assert clifford.verify(surface_grid(clifford)) < 1e-12

    def test_fiber_dimensions(self, geodesic, clifford):
        assert geodesic.fiber_dim == 1
        assert clifford.fiber_dim == 1

    def test_broken_frame_is_rejected(self, geodesic):
        broken = with_frame(geodesic, lambda xi: 2.0 * xi)
        with pytest.raises(PreconditionError):
            broken.verify([[0.5, 1.2]])

    def test_frame_shape_is_enforced(self, geodesic):
        bad = with_frame(geodesic, lambda xi: xi[..., [0, 0], :])
        with pytest.raises(DomainError):
            bad.expand([0.5, 1.2], 0)

    def test_fd_frame_derivative_matches_analytic(self, clifford):
        p = np.array([0.8, 1.1])
        xi = clifford.expand(p, 2)[2]
        _, d1, d2 = fd_jet(value(clifford, 2), p)
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
            return second_legendre_support(surface)
        return linear_support(surface, [0.7, -0.3, 0.4, 0.2])

    @pytest.mark.parametrize("maker", ["geodesic", "clifford"])
    def test_gauss_map_identity(self, maker, request, rng):
        surface = request.getfixturevalue(maker)
        data = self._minimal_support(maker, surface)
        chart = checked_param(data)
        q = surface_grid(surface, 2)
        for w in (-0.2, 0.0, 0.3):
            res = gauss_map_identity_residual(chart, data, np.column_stack([q, np.full(len(q), w)]))
            assert res.max() < 1e-12

    @pytest.mark.parametrize("maker", ["geodesic", "clifford"])
    def test_minimal_support_gives_minimal_chart(self, maker, request):
        surface = request.getfixturevalue(maker)
        data = self._minimal_support(maker, surface)
        pairs = minimality_criterion(data, surface_grid(surface, 2))
        assert pairs.trace_residual.max() < 5e-13
        assert pairs.eigen_residual.max() < 5e-14

    def test_degenerate_support_is_detected(self, geodesic):
        # On the equatorial sphere grad <a, g> = a - <a, g> g, so the base
        # part of the parametrization is the constant vector a and the map
        # cannot be an immersion; the regularity probe must say so.
        data = linear_support(geodesic, [0.7, -0.3, 0.4, 0.2])
        with pytest.raises(NonImmersionPointError):
            checked_param(data)

    def test_constant_support_is_not_minimal(self, geodesic):
        data = constant_support(geodesic, 1.0)
        pairs = minimality_criterion(data, surface_grid(geodesic, 2))
        assert pairs.trace_residual.min() > 1e-2
        np.testing.assert_allclose(pairs.eigen_residual, 2.0, rtol=0.0, atol=1e-9)

    def test_support_identity_along_fibers(self, clifford):
        # <Psi, g> = gamma for every fiber coordinate
        data = linear_support(clifford, [0.5, 0.1, -0.2, 0.3])
        chart = checked_param(data)
        q = np.array([0.9, 1.3])
        g = value(data, 0)(q)
        for w in (-0.3, 0.0, 0.25):
            psi = chart.value(np.append(q, w))
            assert float(psi @ g) == pytest.approx(value(data, 1)(q), abs=1e-12)

    def test_no_fiber_direction_is_rejected(self):
        sphere = sphere_chart()

        def fn(x):
            g = sphere.fn(x)
            return g, 0.0 * x[..., 0], g[..., None, :][..., :0, :]

        full = GaussDatum(2, 3, sphere.box, fn)
        with pytest.raises(PreconditionError):
            gauss_param(constant_support(full, 1.0))

    def test_linear_support_coefficient_shape(self, geodesic):
        with pytest.raises(DomainError):
            linear_support(geodesic, [1.0, 0.0])


class TestExtraction:
    def test_m4r5_leaf_clusters(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples)
        assert len(res.clusters) == 9
        assert sorted(len(c) for c in res.clusters) == [4] * 9
        assert res.normal_spread < 1e-9
        assert res.support_spread < 1e-9
        assert res.rank == 2 and res.nullity == 2

    def test_chained_normals_cluster_as_the_greedy_loop(self):
        # normals 0.4 tol apart along a line, shuffled: most samples lie near
        # two or more founders, so the first-founder rule decides their label
        rng = np.random.default_rng(3)
        steps = rng.permutation(40) * 0.4 * _CLUSTER_TOL
        normals = np.stack([np.ones(40), steps, np.zeros(40)], axis=1)
        normals[5] = np.nan
        labels = _cluster_labels(normals)
        np.testing.assert_array_equal(labels, cluster_labels_loop(normals, _CLUSTER_TOL))
        assert 5 < labels.max() < 39

    @pytest.mark.parametrize("counts", [[2, 2, 2, 2], [3, 3, 2, 2], [6, 6, 2, 2], [4, 3]])
    def test_clusters_match_the_greedy_loop(self, m4r5_chart, cylinder, counts):
        chart = m4r5_chart if len(counts) == 4 else cylinder
        samples = grid_points(shrink_box(chart.box, 0.6), counts)
        res = extract_from_hypersurface(chart, samples)
        labels = cluster_labels_loop(point_frame(chart.jet(samples)).normal, _CLUSTER_TOL)
        assert len(res.clusters) == labels.max() + 1 > 1
        for ci, idx in enumerate(res.clusters):
            np.testing.assert_array_equal(idx, np.flatnonzero(labels == ci))

    def test_m4r5_sections_match_clusters(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [2, 2, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples)
        # the section at the cluster's base coordinates reproduces its data
        for ci, idx in enumerate(res.clusters):
            q = samples[idx[0]][:2]
            np.testing.assert_allclose(
                value(res.data, 0)(q), res.normals[ci], atol=1e-9
            )
            assert value(res.data, 1)(q) == pytest.approx(res.supports[ci], abs=1e-9)

    def test_full_rank_chart_is_rejected(self):
        chart = sphere_chart()
        pts = grid_points(shrink_box(chart.box, 0.5), 2)
        with pytest.raises(PreconditionError, match="no relative nullity"):
            extract_from_hypersurface(chart, pts)

    def test_samples_of_unequal_rank_are_rejected(self):
        # the cylinder over (t, t^3) is flat along its inflection line t = 0
        def fn(x):
            t, z = x[..., 0], x[..., 1]
            return Taylor.stack([t, t * t * t, z])

        chart = TaylorChart(2, 3, np.array([[-1.0, 1.0], [-0.5, 0.5]]), fn)
        samples = np.array([[0.5, 0.0], [0.5, 0.2], [0.0, 0.0]])
        with pytest.raises(PreconditionError, match="rank 0, expected 1"):
            extract_from_hypersurface(chart, samples)

    def test_flat_chart_is_rejected(self):
        chart = plane_chart(3)
        with pytest.raises(PreconditionError, match="rank 0"):
            extract_from_hypersurface(chart, grid_points(shrink_box(chart.box, 0.5), 2))

    def test_cylinder_support_recovers_ellipse_oracle(self, cylinder):
        a, b = 1.5, 0.8
        samples = grid_points(shrink_box(cylinder.box, 0.8), [4, 3])
        res = extract_from_hypersurface(cylinder, samples)
        assert len(res.clusters) == 4
        assert res.support_spread < 1e-10
        for ci, idx in enumerate(res.clusters):
            t = samples[idx[0]][0]
            assert res.supports[ci] == pytest.approx(ellipse_support(a, b, t), rel=1e-9)


class TestRoundTrip:
    def test_m4r5_round_trip(self, m4r5_chart):
        qbox = shrink_box(m4r5_chart.box[:2], 0.6)
        qpts = grid_points(qbox, 3)
        res = gauss_round_trip(m4r5_chart, qpts)
        # all three come out at roundoff: the rebuilt chart's jets are
        # exact, every ingredient read from the source chart's 4-jets
        assert res.plane_distance.max() < 1e-14
        assert res.support_mismatch.max() < 1e-14
        assert res.gauss_mismatch.max() < 1e-14

    def test_cylinder_round_trip(self, cylinder):
        qpts = grid_points(shrink_box(cylinder.box[:1], 0.8), [4])
        res = gauss_round_trip(cylinder, qpts)
        assert res.plane_distance.max() < 1e-14
        assert res.support_mismatch.max() < 1e-14
        assert res.gauss_mismatch.max() < 1e-14

    def test_rebuilt_surface_verifies(self, m4r5_chart):
        data = rebuild(m4r5_chart, 2)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 2)
        # the leaf directions are tangent to the sphere at the normal and
        # orthogonal to the Gauss image's derivative: verified, not assumed
        assert data.verify(qpts) < 1e-14

    def test_leaf_directions_are_orthonormal_and_tangent(self, m4r5_chart):
        q = np.array([0.1, -0.05])
        L = value(rebuild(m4r5_chart, 2), 2)(q)
        np.testing.assert_allclose(L @ L.T, np.eye(2), atol=1e-12)
        fr = point_frame(m4r5_chart.jet(np.array([0.1, -0.05, 0.0, 0.0])))
        np.testing.assert_allclose(L @ fr.normal, 0.0, atol=1e-12)
        # the rows span the fiber partials, the leaf's tangent directions
        fiber = fr.jet.d1[2:]
        np.testing.assert_allclose(fiber - (fiber @ L.T) @ L, 0.0, atol=1e-12)

    def test_rebuild_needs_fiber_coordinates(self, enneper_chart):
        with pytest.raises(PreconditionError):
            rebuild(enneper_chart, 2)

    def test_values_read_the_zero_jet(self, m4r5_chart):
        # the rebuilt datum's value, a section read one order above it, is
        # its 2-jet's to the bit; Psi's solve iterates once per order, so
        # its value and its jet's agree to roundoff
        data = rebuild(m4r5_chart, 2)
        psi = gauss_param(data)
        q = grid_points(shrink_box(data.box, 0.6), 2)
        lifted = np.column_stack([q, np.zeros((len(q), 2))])
        for part in range(3):
            np.testing.assert_array_equal(value(data, part)(q), data.expand(q, 2)[part].value)
        np.testing.assert_allclose(psi.value(lifted), psi.jet(lifted).value, rtol=0.0, atol=1e-15)

    def test_rebuilt_first_derivatives_match_differences(self, m4r5_chart):
        data = rebuild(m4r5_chart, 2)
        for q in grid_points(shrink_box(data.box, 0.6), 2):
            g, _, xi = data.expand(q, 2)
            _, d1, d2 = fd_jet(value(data, 0), q)
            np.testing.assert_allclose(np.moveaxis(g.derivatives(1), 0, -1), d1, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(np.moveaxis(g.derivatives(2), 0, -1), d2, rtol=0.0, atol=1e-6)
            # the leaf frame's partials too
            xi = xi.derivatives(1)
            _, fd, _ = fd_jet(value(data, 2), q)
            np.testing.assert_allclose(np.moveaxis(xi, -1, 0), fd, rtol=0.0, atol=1e-9)

    def test_extracted_support_gradient_matches_differences(self, m4r5_chart):
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples)
        for q in grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3):
            gam = res.data.expand(q, 2)[1]
            _, grad, hess = fd_jet(value(res.data, 1), q)
            np.testing.assert_allclose(gam.derivatives(1), grad, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(gam.derivatives(2), hess, rtol=0.0, atol=1e-6)

    def test_reconstruction_satisfies_minimality_bound(self, m4r5_chart):
        # the full loop: extract (g, gamma), rebuild the sphere surface,
        # re-parametrize, and check both sides of the minimality
        # equivalence at roundoff, every jet exact
        samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
        res = extract_from_hypersurface(m4r5_chart, samples)
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 3)
        pairs = minimality_criterion(res.data, qpts)
        assert pairs.trace_residual.max() < 1e-13
        assert pairs.eigen_residual.max() < 1e-14


class TestSupportFunction:
    def test_fd_gradient_matches_analytic(self, clifford):
        p = np.array([0.8, 1.2])
        for data in (linear_support(clifford, [0.7, -0.3, 0.4, 0.2]), second_legendre_support(clifford)):
            exact = data.expand(p, 2)[1]
            gamma, grad, hess = fd_jet(value(data, 1), p)
            assert exact.value == gamma
            np.testing.assert_allclose(exact.derivatives(1), grad, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(exact.derivatives(2), hess, rtol=0.0, atol=1e-6)

    def test_rebuilt_support_is_the_chart_support(self, m4r5_chart):
        # gamma = <f, N> at the zero-fiber point, from the rebuilt section
        qpts = grid_points(shrink_box(m4r5_chart.box[:2], 0.6), 2)
        fr = point_frame(m4r5_chart.jet(np.column_stack([qpts, np.zeros((len(qpts), 2))])))
        want = np.einsum("pc,pc->p", fr.jet.value, fr.normal)
        got = value(rebuild(m4r5_chart, 2), 1)(qpts)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
def test_a_series_read_leads_with_its_lower_orders_bitwise(name):
    # the round trip reads the chart's 4-jet once and slices its lower
    # orders: those must be the bits a read at a lower order gives
    chart = SeriesChart(builtin_seed(name))
    pts = grid_points(shrink_box(chart.box, 0.6), 3)
    pts[:, 2:] = 0.0  # the zero-fiber section, where the round trip reads
    top = chart.jet_batch(pts, 4)
    for order in range(4):
        low = chart.jet_batch(pts, order)
        assert len(low) == order + 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(low, top))


def test_one_jet_read_per_point_stack(m4r5_chart, monkeypatch):
    """The rebuilt datum reads the chart's jets once per point stack: the
    round trip reads the chart's 4-jet once, for Psi's 2-jet, and takes the
    chart's own frame and the datum's values from its leading parts, and
    the minimality criterion on the extracted datum reads Psi's and the
    datum's 2-jet, two."""
    calls = []
    series_jet = SeriesChart.jet_batch

    def counted_jet(self, pts, order=2):
        calls.append((np.asarray(pts).tobytes(), order))
        return series_jet(self, pts, order)

    qpts = grid_points(shrink_box(m4r5_chart.box, 0.6)[:2], [4, 4])
    lifted = np.column_stack([qpts, np.zeros((len(qpts), 2))]).tobytes()
    samples = grid_points(shrink_box(m4r5_chart.box, 0.6), [3, 3, 2, 2])
    data = extract_from_hypersurface(m4r5_chart, samples).data
    monkeypatch.setattr(SeriesChart, "jet_batch", counted_jet)

    gauss_round_trip(m4r5_chart, qpts)
    assert calls == [(lifted, 4)]
    calls.clear()
    minimality_criterion(data, qpts)
    assert len(calls) <= 2
    assert {pts for pts, _ in calls} == {lifted}
