import numpy as np
import pytest

from minkaehler.bending import (
    B_by_BAT,
    B_by_formula,
    B_by_variation,
    B_with_derivative,
    CombinationField,
    TrivialField,
    Variation,
    b_route_agreement,
    bat_residual,
    bending_residual,
    classify_triviality,
    conjugate_field,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_cylinder_bending,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    recover_bending_decomposition,
    rotation_coefficient,
    tangential_covariant_derivative,
)
from minkaehler.charts import ProductChart, random_points, shrink_box
from minkaehler.errors import DomainError, PreconditionError
from minkaehler.geometry import (
    codazzi_residual,
    covariant_field_derivative,
    gnorm_op,
    point_frame,
    rank_and_nullity,
)
from minkaehler.weierstrass import associated, immersion_f, seed_from_json, seed_to_json

from oracles import (
    SIX_SEEDS,
    B_by_fd,
    ellipse_chart,
    fd_codazzi,
    fd_tangential_covariant_derivative,
    fd_normal_variation,
    first_variation_metric_residual,
    frame_and_jet,
    second_variation_metric_residual,
    seed_bundle,
    sphere_chart,
)


def sample(chart, rng, count=4):
    return random_points(shrink_box(chart.box, 0.8), count, rng)


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
        for name in ("tau", "normal_variation", "tstar", "B"):
            assert getattr(v, name) is getattr(v, name)
        np.testing.assert_array_equal(v.B, B_by_formula(v))
        np.testing.assert_array_equal(B_by_BAT(v), v.frame.shape_operator @ v.tstar)


class TestTrivialFields:
    def test_trivial_is_a_bending(self, catenoid_chart, rng):
        fld = make_trivial(catenoid_chart, rng=rng)
        for p in sample(catenoid_chart, rng, 3):
            assert bending_residual(frame_and_jet(catenoid_chart, fld, p)) < 1e-13

    def test_formula_route_kills_trivial_exactly(self, catenoid_chart, rng):
        fld = make_trivial(catenoid_chart, rng=rng)
        for p in sample(catenoid_chart, rng, 3):
            b = B_by_formula(frame_and_jet(catenoid_chart, fld, p))
            assert np.abs(b).max() < 1e-11

    def test_fd_route_kills_trivial(self, catenoid_chart, rng):
        fld = make_trivial(catenoid_chart, rng=rng)
        b = B_by_fd(frame_and_jet(catenoid_chart, fld, [0.1, 0.2]))
        assert np.abs(b).max() < 1e-6

    def test_skewness_enforced(self, catenoid_chart):
        with pytest.raises(DomainError):
            TrivialField(catenoid_chart, np.eye(3), np.zeros(3))

    def test_random_construction_shapes(self, m4r5_chart, rng):
        fld = make_trivial(m4r5_chart, rng=rng)
        assert fld.skew.shape == (5, 5)
        np.testing.assert_allclose(fld.skew, -fld.skew.T, atol=0)


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
            frame = point_frame(m4r5_chart.jet(p))
            rr = rank_and_nullity(frame)
            b = B_by_formula(frame_and_jet(m4r5_chart, fld, p))
            assert nullity_annihilation_residual(frame, b, frame.eigenvectors[:, rr.null_mask]) < 1e-7


def _g_relative(frame, op, ref):
    """||op - ref||_G / ||ref||_G per point."""
    return gnorm_op(frame, op - ref) / gnorm_op(frame, ref)


class TestExactVariation:
    """B_by_variation and the normal variation are the closed-form first
    variations along f + tT; the FD oracles difference two deformed frames."""

    @pytest.mark.parametrize("name", SIX_SEEDS)
    def test_variation_matches_formula_and_bat(self, name):
        bundle = seed_bundle(name)
        frame, T = bundle.frame, bundle.conjugate
        var = B_by_variation(T)
        assert _g_relative(frame, var, B_by_formula(T)).max() <= 1e-13
        assert _g_relative(frame, var, B_by_BAT(T)).max() <= 1e-13

    @pytest.mark.parametrize("name", ["enneper", "m4r5", "random-n3"])
    def test_variation_matches_fd_oracle_at_second_order(self, name):
        # f + t fbar is a scaled family member, so the central difference of
        # A misses by eps^2 relative, and no more
        bundle = seed_bundle(name)
        frame, T = bundle.frame, bundle.conjugate
        var = B_by_variation(T)
        for eps in (1e-2, 1e-3, 1e-4):
            err = _g_relative(frame, B_by_fd(T, eps=eps), var).max()
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
        fld = make_trivial(chart, rng=rng)
        v = frame_and_jet(chart, fld, sample(chart, rng, 4))
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
        for fld in (conjugate_field(chart), make_trivial(chart, rng=rng)):
            for p in sample(chart, rng, 2):
                got = tangential_covariant_derivative(frame_and_jet(chart, fld, p))
                ref = fd_tangential_covariant_derivative(chart, fld, p)
                scale = max(1.0, float(np.abs(ref).max()))
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8 * scale)

    @pytest.mark.parametrize("name", ["m4r5", "n3"])
    def test_jet_nabla_b_matches_finite_differences(self, name, request, rng):
        # nabla B from the 3-jets against central differences of B's values;
        # the chart of the seed with another b_0 keeps neither the metric nor
        # the normal, so the d_l N term of d_l B counts there
        chart = request.getfixturevalue(f"{name}_chart")
        data = seed_to_json(chart.seed)
        data["b"][0] = [[0.5, 0.3], [0.2, -0.1]]
        for fld in (conjugate_field(chart), immersion_f(seed_from_json(data))):
            for p in sample(chart, rng, 2):
                frame = point_frame(chart.jet(p, order=3))
                op, dop = B_with_derivative(Variation(frame, fld.jet(p, order=3)))
                got = covariant_field_derivative(frame.christoffel, op, dop)
                ref = fd_codazzi(chart, lambda q: B_by_formula(frame_and_jet(chart, fld, q)), p)
                scale = float(np.abs(ref).max())
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-6 * scale)

    def test_codazzi_for_b(self, enneper_chart, rng):
        fld = conjugate_field(enneper_chart)
        for p in sample(enneper_chart, rng, 2):
            frame = point_frame(enneper_chart.jet(p, order=3))
            op, dop = B_with_derivative(Variation(frame, fld.jet(p, order=3)))
            assert codazzi_residual(frame, op, dop) < 1e-12

    def test_b_derivative_needs_3_jets(self, enneper_chart):
        fld = conjugate_field(enneper_chart)
        p = [0.2, -0.1]
        with pytest.raises(DomainError, match="3-jets"):
            B_with_derivative(Variation(point_frame(enneper_chart.jet(p)), fld.jet(p, order=3)))

    def test_codazzi_for_b_along_a_sign_flipped_conjugate(self, m4r5_seed, rng):
        # past theta = pi/2 the conjugate is -1 times a family member, a
        # CombinationField that must pass its jets through at order 3
        chart = associated(m4r5_seed, 2.0)
        fld = conjugate_field(chart)
        assert isinstance(fld, CombinationField)
        pts = sample(chart, rng, 3)
        frame = point_frame(chart.jet(pts, order=3))
        op, dop = B_with_derivative(Variation(frame, fld.jet(pts, order=3)))
        assert codazzi_residual(frame, op, dop).max() < 1e-12

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
        fld = CombinationField((conjugate_field(enneper_chart),), (2.5,))
        p = sample(enneper_chart, rng, 1)[0]
        rot = rotation_coefficient(frame_and_jet(enneper_chart, fld, p))
        assert rot.coefficient == pytest.approx(2.5, abs=1e-9)

    def test_oriented_basis_is_g_orthonormal(self, m4r5_chart):
        fld = conjugate_field(m4r5_chart)
        rot = rotation_coefficient(frame_and_jet(m4r5_chart, fld, [0.1, 0.05, 0.2, -0.1]))
        frame = point_frame(m4r5_chart.jet([0.1, 0.05, 0.2, -0.1]))
        v = rot.basis
        np.testing.assert_allclose(v.T @ frame.metric @ v, np.eye(2), atol=1e-10)


class TestClassification:
    def test_trivial_fields_classify_trivial(self, catenoid_chart, rng):
        pts = sample(catenoid_chart, rng, 5)
        for _ in range(5):
            fld = make_trivial(catenoid_chart, rng=rng)
            res = classify_triviality(catenoid_chart, fld, pts)
            assert res.trivial and res.score < 1e-6

    def test_translation_only_is_trivial(self, catenoid_chart, rng):
        fld = TrivialField(catenoid_chart, np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]))
        res = classify_triviality(catenoid_chart, fld, sample(catenoid_chart, rng, 3))
        assert res.trivial and res.score == 0.0

    def test_conjugate_classifies_nontrivial(self, m4r5_chart, rng):
        fld = conjugate_field(m4r5_chart)
        res = classify_triviality(m4r5_chart, fld, sample(m4r5_chart, rng, 5))
        assert not res.trivial

    def test_mixture_classifies_nontrivial(self, enneper_chart, rng):
        mix = CombinationField(
            (conjugate_field(enneper_chart), make_trivial(enneper_chart, rng=rng)),
            (2.0, 1.0),
        )
        res = classify_triviality(enneper_chart, mix, sample(enneper_chart, rng, 5))
        assert not res.trivial

    def test_non_bending_is_rejected(self, enneper_chart, rng):
        # T = f scales the metric
        with pytest.raises(PreconditionError):
            classify_triviality(enneper_chart, enneper_chart, sample(enneper_chart, rng, 3))


class TestDecomposition:
    def test_pure_conjugate(self, catenoid_chart, rng):
        fld = conjugate_field(catenoid_chart)
        dec = recover_bending_decomposition(
            catenoid_chart, fld, sample(catenoid_chart, rng, 8)
        )
        assert dec.coefficient == pytest.approx(1.0, abs=1e-8)
        assert np.abs(dec.skew).max() < 1e-8
        assert np.abs(dec.offset).max() < 1e-8
        assert dec.residual < 1e-8

    def test_mixture_recovers_all_parts(self, catenoid_chart, rng):
        raw = rng.standard_normal((3, 3))
        skew = raw - raw.T
        offset = np.array([0.4, -1.2, 0.7])
        mix = CombinationField(
            (conjugate_field(catenoid_chart), TrivialField(catenoid_chart, skew, offset)),
            (2.0, 1.0),
        )
        dec = recover_bending_decomposition(
            catenoid_chart, mix, sample(catenoid_chart, rng, 8)
        )
        assert dec.coefficient == pytest.approx(2.0, abs=1e-6)
        np.testing.assert_allclose(dec.skew, skew, atol=1e-6)
        np.testing.assert_allclose(dec.offset, offset, atol=1e-6)
        assert dec.residual < 1e-6

    def test_m4r5_mixture(self, m4r5_chart, rng):
        mix = CombinationField(
            (conjugate_field(m4r5_chart), make_trivial(m4r5_chart, rng=rng)),
            (2.0, 1.0),
        )
        dec = recover_bending_decomposition(m4r5_chart, mix, sample(m4r5_chart, rng, 10))
        assert dec.coefficient == pytest.approx(2.0, abs=1e-6)
        assert dec.residual < 1e-6


class TestCylinder:
    def test_field_is_a_bending(self, cylinder, rng):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        for p in sample(cylinder, rng, 4):
            assert bending_residual(frame_and_jet(cylinder, fld, p)) < 1e-13

    def test_field_is_nontrivial(self, cylinder, rng):
        fld = make_cylinder_bending(cylinder, 1.5, 0.8)
        res = classify_triviality(cylinder, fld, sample(cylinder, rng, 5))
        assert not res.trivial

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
    def test_dimension_mismatch_rejected(self, catenoid_chart, m4r5_chart):
        fld = conjugate_field(m4r5_chart)
        with pytest.raises(DomainError):
            CombinationField((catenoid_chart, fld), (1.0, 0.1))

    def test_zero_deformation_reproduces_chart(self, catenoid_chart):
        fld = conjugate_field(catenoid_chart)
        pert = CombinationField((catenoid_chart, fld), (1.0, 0.0))
        p = np.array([0.1, 0.2])
        np.testing.assert_array_equal(pert.jet(p).value, catenoid_chart.jet(p).value)

    def test_deformed_chart_is_affine_in_t(self, m4r5_chart):
        # f + tT carries exactly the jets f + t T, with the box of f
        fld = conjugate_field(m4r5_chart)
        t = 0.37
        pert = CombinationField((m4r5_chart, fld), (1.0, t))
        assert pert.box is m4r5_chart.box
        p = np.array([0.1, -0.05, 0.2, 0.1])
        jp, jf, jt = pert.jet(p), m4r5_chart.jet(p), fld.jet(p)
        for name in ("value", "d1", "d2"):
            np.testing.assert_array_equal(
                getattr(jp, name), getattr(jf, name) + t * getattr(jt, name)
            )

    def test_fields_carry_the_box_of_their_chart(self, catenoid_chart, cylinder, rng):
        assert make_trivial(catenoid_chart, rng=rng).box is catenoid_chart.box
        assert make_cylinder_bending(cylinder, 1.5, 0.8).box is cylinder.box
        mix = CombinationField((make_trivial(catenoid_chart, rng=rng), catenoid_chart), (1.0, 2.0))
        assert mix.box is catenoid_chart.box

    def test_conjugate_is_the_mate_chart(self, catenoid_chart, catenoid_fbar):
        # f's conjugate is fbar itself; fbar's is -f, a sign-flipped combination
        fld = conjugate_field(catenoid_chart)
        assert fld.theta == catenoid_fbar.theta
        np.testing.assert_array_equal(fld.box, catenoid_chart.box)
        back = conjugate_field(catenoid_fbar)
        assert isinstance(back, CombinationField) and back.coeffs == (-1.0,)
        assert back.fields[0].theta == catenoid_chart.theta
