import math

import numpy as np
import pytest

from minkaehler.bending import (
    B_by_BAT,
    B_by_formula,
    B_by_variation,
    B_with_codazzi_derivative,
    Variation,
    b_route_agreement,
    bat_residual,
    bending_residual,
    classify_triviality,
    codazzi_residual,
    conjugate_field,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    recover_bending_decomposition,
    rotation_coefficient,
    tangential_covariant_derivative,
    trivial_jet,
)
from minkaehler.report import ResidualReport
from minkaehler.suites import DEFAULT_TOLERANCES
from minkaehler.charts import ProductChart, random_points, shrink_box
from minkaehler.errors import DomainError, PreconditionError
from minkaehler.gausspar import make_cylinder_bending
from minkaehler.geometry import (
    covariant_field_derivative,
    gnorm_op,
    point_frame,
)
from minkaehler.weierstrass import SeriesChart, seed_from_json, seed_to_json

from oracles import (
    SIX_SEEDS,
    B_by_fd,
    B_by_formula_coord,
    codazzi_columns,
    codazzi_lowered,
    ellipse_chart,
    fd_codazzi,
    fd_tangential_covariant_derivative,
    fd_normal_variation,
    in_orthonormal_columns,
    first_variation_metric_residual,
    frame_and_jet,
    in_frame,
    mix_jets,
    scaled_jet,
    second_variation_metric_residual,
    seed_bundle,
    sphere_chart,
)


def sample(chart, rng, count=4):
    return random_points(shrink_box(chart.box, 0.8), count, rng)


def trivial_along(chart, p, rng) -> Variation:
    """A random trivial field along the chart at points p."""
    jet = chart.jet(p)
    return Variation(point_frame(jet), make_trivial(jet, rng))


def conjugate_along(chart, p) -> Variation:
    """The conjugate field along the chart at points p."""
    return frame_and_jet(chart, conjugate_field(chart), p)


@pytest.fixture()
def cylinder():
    return ProductChart(profile=ellipse_chart(), extra=1)


class TestConjugateIsBending:
    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_bending_condition(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng):
            assert bending_residual(frame_and_jet(chart, fld, p)) < 1e-13

    @pytest.mark.parametrize("name", ["enneper", "m4r5"])
    def test_first_metric_variation_vanishes(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng, 3):
            assert first_variation_metric_residual(chart, fld, p) < 1e-10

    def test_metric_deformation_is_exactly_quadratic(self, catenoid_chart, rng):
        fld = conjugate_field(catenoid_chart)
        for p in sample(catenoid_chart, rng, 3):
            assert second_variation_metric_residual(catenoid_chart, fld, p, t=0.2) < 1e-13

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_gauss_map_is_preserved(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng, 3):
            v = frame_and_jet(chart, fld, p)
            assert gauss_tangency_residual(v) < 1e-13
            assert normal_variation_residual(v) < 1e-13
            assert np.linalg.norm(fd_normal_variation(v)) < 1e-9

    def test_conjugating_twice_negates(self, catenoid_chart, catenoid_fbar):
        fld = conjugate_field(catenoid_fbar)
        p = np.array([0.15, -0.1])
        np.testing.assert_allclose(
            fld.value(p), -catenoid_chart.value(p), atol=1e-14
        )

    def test_scaling_field_is_not_a_bending(self, enneper_chart):
        # T = f itself stretches the metric: the condition must fail
        assert bending_residual(frame_and_jet(enneper_chart, enneper_chart, [0.2, 0.1])) > 1e-2


class TestVariation:
    def test_frame_and_jet_must_share_points(self, catenoid_chart):
        fld = conjugate_field(catenoid_chart)
        frame = point_frame(catenoid_chart.jet([[0.1, 0.2], [0.2, -0.1]]))
        for pts in ([[0.1, 0.2], [0.2, -0.15]], [[0.1, 0.2]], [0.1, 0.2]):
            with pytest.raises(DomainError, match="points"):
                Variation(frame, fld.jet(pts))

    def test_pieces_are_kept_and_b_is_the_formula_route(self, m4r5_chart, rng):
        v = frame_and_jet(m4r5_chart, conjugate_field(m4r5_chart), sample(m4r5_chart, rng, 3))
        for name in ("tau", "tau_hat", "normal_variation", "tstar_hat", "B"):
            assert getattr(v, name) is getattr(v, name)
        np.testing.assert_array_equal(v.B, B_by_formula(v))
        np.testing.assert_array_equal(B_by_BAT(v), v.frame.shape_hat @ v.tstar_hat)


class TestTrivialFields:
    def test_trivial_is_a_bending(self, catenoid_chart, rng):
        v = trivial_along(catenoid_chart, sample(catenoid_chart, rng, 3), rng)
        assert bending_residual(v).max() < 1e-13

    def test_formula_route_kills_trivial_exactly(self, catenoid_chart, rng):
        b = B_by_formula(trivial_along(catenoid_chart, sample(catenoid_chart, rng, 3), rng))
        assert np.abs(b).max() < 1e-11

    def test_fd_route_kills_trivial(self, catenoid_chart, rng):
        b = B_by_fd(trivial_along(catenoid_chart, [0.1, 0.2], rng))
        assert np.abs(b).max() < 1e-6

    def test_skewness_enforced(self, catenoid_chart):
        with pytest.raises(DomainError, match="antisymmetric"):
            trivial_jet(catenoid_chart.jet([0.1, 0.2]), np.eye(3), np.zeros(3))

    def test_shapes_enforced(self, catenoid_chart):
        jet = catenoid_chart.jet([0.1, 0.2])
        with pytest.raises(DomainError, match="3x3"):
            trivial_jet(jet, np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(DomainError, match="3 components"):
            trivial_jet(jet, np.zeros((3, 3)), np.zeros(2))

    def test_jet_is_the_rigid_motion_of_the_chart_jet(self, m4r5_chart, rng):
        jet = m4r5_chart.jet(sample(m4r5_chart, rng, 3).reshape(3, 1, 4))
        raw = rng.standard_normal((5, 5))
        skew, offset = raw - raw.T, rng.standard_normal(5)
        fld = trivial_jet(jet, skew, offset)
        assert fld.coords is jet.coords
        np.testing.assert_array_equal(fld.value, jet.value @ skew.T + offset)
        np.testing.assert_array_equal(fld.d1, jet.d1 @ skew.T)
        np.testing.assert_array_equal(fld.d2, jet.d2 @ skew.T)

    def test_random_construction_shapes(self, m4r5_chart, rng):
        jet = m4r5_chart.jet(sample(m4r5_chart, rng, 2))
        fld = make_trivial(jet, rng)
        assert (fld.value.shape, fld.d1.shape, fld.d2.shape) == ((2, 5), (2, 4, 5), (2, 4, 4, 5))
        assert fld.coords is jet.coords


class TestBTensor:
    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_three_routes_agree(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng, 3):
            assert b_route_agreement(frame_and_jet(chart, fld, p)) < 1e-13

    def test_bat_identity(self, m4r5_chart, rng):
        fld = conjugate_field(m4r5_chart)
        for p in sample(m4r5_chart, rng, 3):
            assert bat_residual(frame_and_jet(m4r5_chart, fld, p)) < 1e-7

    def test_nullity_annihilation_on_m4r5(self, m4r5_chart, rng):
        fld = conjugate_field(m4r5_chart)
        for p in sample(m4r5_chart, rng, 3):
            assert nullity_annihilation_residual(frame_and_jet(m4r5_chart, fld, p)) < 1e-7


def _g_relative(op, ref):
    """||op - ref||_G / ||ref||_G per point, of two frame matrices."""
    return gnorm_op(op - ref) / gnorm_op(ref)


class TestExactVariation:
    """B_by_variation and the normal variation are the closed-form first
    variations along f + tT; the FD oracles difference two deformed frames."""

    @pytest.mark.parametrize("name", SIX_SEEDS)
    def test_variation_matches_formula_and_bat(self, name):
        bundle = seed_bundle(name)
        T = bundle.conjugate
        var = B_by_variation(T)
        assert _g_relative(var, B_by_formula(T)).max() <= 1e-13
        assert _g_relative(var, B_by_BAT(T)).max() <= 1e-13

    @pytest.mark.parametrize("name", ["enneper", "m4r5", "random-n3"])
    def test_variation_matches_fd_oracle_at_second_order(self, name):
        # f + t fbar is a scaled family member, so the central difference of
        # A, taken to the frame, misses by eps^2 relative, and no more
        bundle = seed_bundle(name)
        frame, T = bundle.frame, bundle.conjugate
        var = B_by_variation(T)
        for eps in (1e-2, 1e-3, 1e-4):
            err = _g_relative(in_frame(frame, B_by_fd(T, eps=eps)), var).max()
            assert 0.5 * eps**2 <= err <= 2 * eps**2

    @pytest.mark.parametrize("name", ["catenoid", "m4r5", "random-n2"])
    def test_normal_variation_matches_fd_oracle(self, name):
        # a rigid motion tilts the normal at first order
        bundle = seed_bundle(name)
        T = Variation(bundle.frame, bundle.trivial_jet(stream=5))
        exact = T.normal_variation
        assert np.linalg.norm(exact, axis=-1).max() > 1e-2
        for eps in (1e-2, 1e-3):
            assert np.abs(fd_normal_variation(T, eps=eps) - exact).max() <= eps**2

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_variation_kills_trivial_like_the_formula(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        v = trivial_along(chart, sample(chart, rng, 4), rng)
        var = B_by_variation(v)
        assert np.abs(var).max() < 1e-11
        np.testing.assert_allclose(var, B_by_formula(v), rtol=0, atol=1e-11)


class TestStructuralIdentities:
    @pytest.mark.parametrize("name", ["enneper", "m4r5"])
    def test_linearized_curvature_identity(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng, 3):
            assert fundamental_equation_residual(frame_and_jet(chart, fld, p)) < 1e-9

    def test_tangential_part_is_parallel(self, catenoid_chart, rng):
        fld = conjugate_field(catenoid_chart)
        for p in sample(catenoid_chart, rng, 2):
            assert parallel_tangential_residual(frame_and_jet(catenoid_chart, fld, p)) < 1e-7

    @pytest.mark.parametrize("name", ["m4r5", "n3"])
    def test_tangential_derivative_matches_fd_reference(self, name, request, rng):
        # the conjugate's T_* is parallel; a trivial field's is not
        chart = request.getfixturevalue(f"{name}_chart")
        conj = conjugate_field(chart)
        # one trivial field: each call draws the same D and w
        for field in (lambda jet: conj.jet(jet.coords), lambda jet: make_trivial(jet, np.random.default_rng(7))):
            for p in sample(chart, rng, 2):
                jet = chart.jet(p)
                v = Variation(point_frame(jet), field(jet))
                got = tangential_covariant_derivative(v)[0]
                ref = in_orthonormal_columns(v.frame, fd_tangential_covariant_derivative(chart, field, p))
                scale = max(1.0, float(np.abs(ref).max()))
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8 * scale)

    @pytest.mark.parametrize("name", ["m4r5", "n3"])
    def test_jet_nabla_b_matches_finite_differences(self, name, request, rng):
        # the Codazzi derivative of B's form from the 2-jets against G
        # ((nabla_i B) e_j - (nabla_j B) e_i), from central differences of
        # the coordinate B's values, both in the orthonormal frame, relative
        # to the largest entry of either term; the chart of the seed with
        # another b_0 keeps neither the metric nor the normal, so the d_i N
        # term of d_i b counts there
        chart = request.getfixturevalue(f"{name}_chart")
        data = seed_to_json(chart.seed)
        data["b"][0] = [[0.5, 0.3], [0.2, -0.1]]
        for fld in (conjugate_field(chart), SeriesChart(seed_from_json(data))):
            for p in sample(chart, rng, 2):
                v = frame_and_jet(chart, fld, p)
                got = covariant_field_derivative(v.frame, *B_with_codazzi_derivative(v))
                ref = fd_codazzi(chart, lambda q: B_by_formula_coord(frame_and_jet(chart, fld, q)), p)
                ref = codazzi_columns(v.frame, codazzi_lowered(v.frame, ref))
                np.testing.assert_allclose(got[0], ref, rtol=0.0, atol=1e-6 * float(np.abs(got[1:]).max()))

    def test_codazzi_for_b(self, enneper_chart, rng):
        fld = conjugate_field(enneper_chart)
        for p in sample(enneper_chart, rng, 2):
            v = frame_and_jet(enneper_chart, fld, p)
            assert codazzi_residual(v.frame, *B_with_codazzi_derivative(v)) < 1e-12

    def test_codazzi_for_b_along_the_conjugate_past_pi(self, m4r5_seed, rng):
        # past theta = pi/2 the conjugate is the family member past pi
        chart = SeriesChart(m4r5_seed, 2.0)
        fld = conjugate_field(chart)
        assert isinstance(fld, SeriesChart) and fld.theta == 2.0 + math.pi / 2
        pts = sample(chart, rng, 3)
        v = frame_and_jet(chart, fld, pts)
        assert codazzi_residual(v.frame, *B_with_codazzi_derivative(v)).max() < 1e-12

    def test_curvature_identity_fails_for_sphere_pair(self):
        # sanity: the identity is not vacuous - feeding a non-bending pair
        # (sphere with its own position field) must not pass
        chart = sphere_chart()
        assert fundamental_equation_residual(frame_and_jet(chart, chart, [0.6, 1.2])) > 1e-3


class TestRotation:
    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_conjugate_rotates_by_plus_one(self, name, request, rng):
        chart = request.getfixturevalue(f"{name}_chart")
        fld = conjugate_field(chart)
        for p in sample(chart, rng, 3):
            rot = rotation_coefficient(frame_and_jet(chart, fld, p))
            assert rot.coefficient == pytest.approx(1.0, abs=1e-9)
            assert rot.fit_residual < 1e-9

    def test_scaled_conjugate_scales_coefficient(self, enneper_chart, rng):
        p = sample(enneper_chart, rng, 1)[0]
        conj = conjugate_along(enneper_chart, p)
        rot = rotation_coefficient(Variation(conj.frame, mix_jets(2.5, conj.jet, 0.0, conj.jet)))
        assert rot.coefficient == pytest.approx(2.5, abs=1e-9)

    def test_plane_projector_is_orthogonal(self, m4r5_chart):
        # the rotation reads T_* on the range of A through Pi: a symmetric
        # idempotent of trace 2 in the orthonormal frame, fixing A_hat
        frame = point_frame(m4r5_chart.jet([0.1, 0.05, 0.2, -0.1]))
        proj = frame.shape_range[0]
        np.testing.assert_allclose(proj, proj.T, atol=1e-12)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
        assert np.trace(proj) == pytest.approx(2.0, abs=1e-12)
        S = frame.shape_hat
        np.testing.assert_allclose(proj @ S, S, atol=1e-12 * np.abs(S).max())


class TestClassification:
    def test_trivial_fields_classify_trivial(self, catenoid_chart, rng):
        jet = catenoid_chart.jet(sample(catenoid_chart, rng, 5))
        frame = point_frame(jet)
        for _ in range(5):
            res = classify_triviality(Variation(frame, make_trivial(jet, rng)))
            assert res.trivial and res.score < 1e-6

    def test_translation_only_is_trivial(self, catenoid_chart, rng):
        jet = catenoid_chart.jet(sample(catenoid_chart, rng, 3))
        fld = trivial_jet(jet, np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]))
        res = classify_triviality(Variation(point_frame(jet), fld))
        assert res.trivial and res.score == 0.0

    def test_conjugate_classifies_nontrivial(self, m4r5_chart, rng):
        res = classify_triviality(conjugate_along(m4r5_chart, sample(m4r5_chart, rng, 5)))
        assert not res.trivial

    def test_mixture_classifies_nontrivial(self, enneper_chart, rng):
        conj = conjugate_along(enneper_chart, sample(enneper_chart, rng, 5))
        mix = mix_jets(2.0, conj.jet, 1.0, make_trivial(conj.frame.jet, rng))
        res = classify_triviality(Variation(conj.frame, mix))
        assert not res.trivial

    @pytest.mark.parametrize("factor", [1e-8, 1e8, 1e16, 1e22])
    def test_score_does_not_depend_on_a_homothety(self, factor):
        # f and its conjugate scaled by lambda: ||B||_G and ||A||_G both scale
        # by 1/lambda, and the score stays at ||B||_G / ||A||_G = 1 (B = A J
        # on a seed chart), with no absolute floor to call it trivial
        f, fbar = seed_bundle("m4r5")._grid_jets
        res = classify_triviality(Variation(point_frame(scaled_jet(f, factor)), scaled_jet(fbar, factor)))
        assert not res.trivial
        assert abs(res.score - 1.0) <= 1e-12

    def test_non_bending_is_rejected(self, enneper_chart, rng):
        # T = f scales the metric
        with pytest.raises(PreconditionError):
            classify_triviality(frame_and_jet(enneper_chart, enneper_chart, sample(enneper_chart, rng, 3)))


class TestDecomposition:
    def test_pure_conjugate(self, catenoid_chart, rng):
        conj = conjugate_along(catenoid_chart, sample(catenoid_chart, rng, 8))
        dec = recover_bending_decomposition(conj, conj)
        assert dec.coefficient == pytest.approx(1.0, abs=1e-8)
        assert np.abs(dec.skew).max() < 1e-8
        assert np.abs(dec.offset).max() < 1e-8
        assert dec.residual < 1e-8

    def test_mixture_recovers_all_parts(self, catenoid_chart, rng):
        raw = rng.standard_normal((3, 3))
        skew = raw - raw.T
        offset = np.array([0.4, -1.2, 0.7])
        conj = conjugate_along(catenoid_chart, sample(catenoid_chart, rng, 8))
        mix = mix_jets(2.0, conj.jet, 1.0, trivial_jet(conj.frame.jet, skew, offset))
        dec = recover_bending_decomposition(Variation(conj.frame, mix), conj)
        assert dec.coefficient == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(dec.skew, skew, atol=1e-6)
        np.testing.assert_allclose(dec.offset, offset, atol=1e-6)
        assert dec.residual < 1e-6

    def test_m4r5_mixture(self, m4r5_chart, rng):
        conj = conjugate_along(m4r5_chart, sample(m4r5_chart, rng, 10))
        mix = mix_jets(2.0, conj.jet, 1.0, make_trivial(conj.frame.jet, rng))
        dec = recover_bending_decomposition(Variation(conj.frame, mix), conj)
        assert dec.coefficient == pytest.approx(2.0, abs=1e-6)
        assert dec.residual < 1e-6

    @pytest.mark.parametrize("factor", [1e-12, 1e-8, 1.0, 1e8, 1e12])
    def test_decomposition_does_not_depend_on_a_homothety(self, factor, rng):
        # T = 0.7 fbar + D f + w on the m4r5 grid, all scaled by lambda: the
        # fit weighs its skew and offset columns alike at every scale, and
        # the misfit is relative to the field
        f, fbar = seed_bundle("m4r5")._grid_jets
        mix = mix_jets(0.7, fbar, 1.0, make_trivial(f, rng))
        frame = point_frame(scaled_jet(f, factor))
        dec = recover_bending_decomposition(
            Variation(frame, scaled_jet(mix, factor)), Variation(frame, scaled_jet(fbar, factor))
        )
        assert abs(dec.coefficient - 0.7) <= 1e-12
        assert dec.residual <= 1e-13

    def test_a_trivial_reference_is_refused(self):
        # a trivial field's B is roundoff (score 3.9e-16 on the catenoid's
        # grid), and projecting onto it read a coefficient of -6.1e14
        bundle = seed_bundle("catenoid")
        reference = Variation(bundle.frame, make_trivial(bundle.frame.jet, np.random.default_rng(1)))
        with pytest.raises(PreconditionError, match="reference bending is trivial"):
            recover_bending_decomposition(bundle.conjugate, reference)

    def test_field_and_conjugate_must_share_the_frame(self, catenoid_chart, rng):
        pts = sample(catenoid_chart, rng, 4)
        with pytest.raises(DomainError, match="one frame"):
            recover_bending_decomposition(conjugate_along(catenoid_chart, pts), conjugate_along(catenoid_chart, pts))


@pytest.mark.parametrize("route", [bat_residual, b_route_agreement])
def test_a_translation_reads_zero_on_the_b_rows(route):
    # T = w has B = 0 and A T_* = 0 exactly: every point reads 0/0 = 0, and
    # the row passes, with every point measured
    frame = seed_bundle("m4r5").frame
    T = trivial_jet(frame.jet, np.zeros((5, 5)), np.array([0.3, -1.0, 0.5, 2.0, 0.1]))
    res = route(Variation(frame, T))
    assert not res.any()
    row = ResidualReport.from_residuals("x", res, DEFAULT_TOLERANCES["bending_bat"])
    assert (row.points, row.nonfinite, row.passed) == (144, 0, True)


class TestCylinder:
    def test_field_is_a_bending(self, cylinder, rng):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        for p in sample(cylinder, rng, 4):
            assert bending_residual(frame_and_jet(cylinder, fld, p)) < 1e-13

    def test_field_is_nontrivial(self, cylinder, rng):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        res = classify_triviality(frame_and_jet(cylinder, fld, sample(cylinder, rng, 5)))
        assert not res.trivial

    def test_decomposition_against_the_closed_form_bending(self, cylinder, rng):
        # any chart decomposes against a nontrivial bending the caller supplies
        bend = frame_and_jet(cylinder, make_cylinder_bending(cylinder, 1.5, 0.8), sample(cylinder, rng, 8))
        mix = mix_jets(-0.5, bend.jet, 1.0, make_trivial(bend.frame.jet, rng))
        dec = recover_bending_decomposition(Variation(bend.frame, mix), bend)
        assert dec.coefficient == pytest.approx(-0.5, abs=1e-8)
        assert dec.residual < 1e-8

    def test_b_annihilates_flat_directions(self, cylinder, rng):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        for p in sample(cylinder, rng, 3):
            b = B_by_formula(frame_and_jet(cylinder, fld, p))
            # the straight factor is chart coordinate 1
            assert np.abs(b[:, 1]).max() < 1e-10

    def test_b_is_nonzero_on_profile_direction(self, cylinder):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        b = B_by_formula(frame_and_jet(cylinder, fld, [1.0, 0.1]))
        assert np.abs(b[0, 0]) > 1e-3


class TestCombinationField:
    """f + tT and the fields along a chart: the deformed jet is the sum of
    the two jets, :func:`mix_jets`, with no chart of its own."""

    def test_zero_deformation_reproduces_chart(self, catenoid_chart):
        fld = conjugate_field(catenoid_chart)
        p = np.array([0.1, 0.2])
        pert = mix_jets(1.0, catenoid_chart.jet(p), 0.0, fld.jet(p))
        np.testing.assert_array_equal(pert.value, catenoid_chart.jet(p).value)

    def test_deformed_chart_is_affine_in_t(self, m4r5_chart):
        # f + tT carries exactly the jets f + t T, on the points of f
        fld = conjugate_field(m4r5_chart)
        t = 0.37
        p = np.array([0.1, -0.05, 0.2, 0.1])
        jf, jt = m4r5_chart.jet(p), fld.jet(p)
        jp = mix_jets(1.0, jf, t, jt)
        np.testing.assert_array_equal(jp.coords, p)
        for name in ("value", "d1", "d2"):
            np.testing.assert_array_equal(
                getattr(jp, name), getattr(jf, name) + t * getattr(jt, name)
            )

    def test_fields_carry_the_box_of_their_chart(self, cylinder):
        assert make_cylinder_bending(cylinder, 1.5, 0.8).box is cylinder.box

    def test_conjugate_is_the_mate_chart(self, catenoid_chart, catenoid_fbar):
        # f's conjugate is fbar itself; fbar's is the member at pi, which is
        # -f to the bit, and that one's the member at 3 pi / 2, -fbar
        fld = conjugate_field(catenoid_chart)
        assert fld.theta == catenoid_fbar.theta
        np.testing.assert_array_equal(fld.box, catenoid_chart.box)
        back = conjugate_field(catenoid_fbar)
        again = conjugate_field(back)
        assert (back.theta, again.theta) == (math.pi, 1.5 * math.pi)
        pts = np.array([[0.1, 0.2], [-0.3, 0.05]])
        for got, want in zip(back.jet_batch(pts, order=3), catenoid_chart.jet_batch(pts, order=3)):
            np.testing.assert_array_equal(got, -want)
        for got, want in zip(again.jet_batch(pts, order=3), catenoid_fbar.jet_batch(pts, order=3)):
            np.testing.assert_array_equal(got, -want)

    def test_conjugate_of_a_member_stack_is_the_stack_of_conjugates(self, m4r5_chart):
        thetas = (0.0, 1.0, math.pi / 2)
        stack = conjugate_field(SeriesChart(m4r5_chart.seed, thetas))
        assert stack.theta == tuple(t + math.pi / 2 for t in thetas)
        pts = random_points(shrink_box(m4r5_chart.box, 0.8), 3, np.random.default_rng(3))
        jets = stack.jet_batch(pts, order=3)
        for i, theta in enumerate(thetas):
            alone = conjugate_field(SeriesChart(m4r5_chart.seed, theta)).jet_batch(pts, order=3)
            for got, want in zip(jets, alone):
                np.testing.assert_array_equal(got[i], want)
