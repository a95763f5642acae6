import dataclasses
import importlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import minkaehler.bending as bending
import minkaehler.geometry as geometry
import minkaehler.kernels as kernels
import minkaehler.suites as suites
import minkaehler.weierstrass as weierstrass
from minkaehler import builtin_seed
from minkaehler.charts import grid_points, shrink_box
from minkaehler.errors import DomainWarning
from minkaehler.report import (
    ResidualReport,
    all_passed,
    render_json,
    render_text_table,
    report_to_dict,
)
from minkaehler.seeds import EXPECTED_RESIDUALS
from minkaehler.suites import (
    CONTROL_FLOOR,
    DEFAULT_TOLERANCES,
    SUITE_ORDER,
    build_bundle,
    default_counts,
    default_suites,
    run_suites,
)
from minkaehler.weierstrass import SeriesChart, seed_from_json

from oracles import (
    SIX_SEEDS,
    in_orthonormal_columns,
    perfbench_module,
    report_from_residuals_loop,
    sampled_family_metric,
    scaled_jet,
    seed_bundle,
    tangential_covariant_derivative_by_gamma,
)

SEED_NAMES = ("enneper", "catenoid", "m4r5")
EPS = np.finfo(np.float64).eps
FAMILY_ROWS = ["family_metric", "family_normal", "family_shape"]
# the rows read in the orthonormal frame, with no eigen-solver and no d_i T_*
FRAME_ROWS = ["rank", "kaehler_parallel", "bending_tpar", "rotation", "nullity_in_bending_kernel"]
ROTATION_DRAW = 20261020  # generator seed of the ambient rotation Q


@pytest.fixture(scope="module", params=SEED_NAMES)
def verified(request):
    """One full default verification run per builtin, shared module-wide."""
    bundle = build_bundle(builtin_seed(request.param))
    reports = run_suites(bundle)
    return bundle, reports


@pytest.fixture(scope="module")
def enneper_bundle():
    return build_bundle(builtin_seed("enneper"), counts=[4, 4])


class TestFullRuns:
    def test_every_identity_passes(self, verified):
        _, reports = verified
        failing = [r.identity for r in reports if not r.passed]
        assert not failing, f"failing reports: {failing}"
        assert all_passed(reports)

    def test_identities_match_manifest(self, verified):
        bundle, reports = verified
        manifest = EXPECTED_RESIDUALS[bundle.seed.name]
        measured = [r.identity for r in reports if not r.control]
        assert measured == [s for s in SUITE_ORDER if s in manifest]

    def test_residuals_within_regression_bounds(self, verified):
        bundle, reports = verified
        manifest = EXPECTED_RESIDUALS[bundle.seed.name]
        for r in reports:
            if r.control:
                continue
            assert r.max_residual <= manifest[r.identity], (
                f"{bundle.seed.name}/{r.identity}: {r.max_residual:.3e} "
                f"exceeds the regression bound {manifest[r.identity]:.3e}"
            )

    def test_controls_have_teeth(self, verified):
        _, reports = verified
        controls = [r for r in reports if r.control]
        assert controls, "default runs must ship negative controls"
        for r in controls:
            assert r.identity.endswith("_control")
            assert r.max_residual > CONTROL_FLOOR
            assert r.passed
            assert r.verdict == "expected-fail"

    def test_every_suite_has_a_sane_row(self, verified):
        _, reports = verified
        for r in reports:
            assert r.points >= 1
            assert 0.0 <= r.mean_residual <= r.max_residual
            assert math.isfinite(r.max_residual)


class TestSelectionAndErrors:
    def test_unknown_suite_is_rejected(self, enneper_bundle):
        with pytest.raises(ValueError, match="unknown suites.*registered"):
            run_suites(enneper_bundle, names=["minimality", "no_such_suite"])

    def test_unknown_tolerance_override_is_rejected(self, enneper_bundle):
        with pytest.raises(ValueError, match="tolerance overrides"):
            run_suites(enneper_bundle, tolerances={"no_such_suite": 1.0})

    def test_impossible_tolerance_fails_cleanly(self, enneper_bundle):
        reports = run_suites(
            enneper_bundle, names=["minimality"], tolerances={"minimality": 1e-300}
        )
        assert len(reports) == 1
        assert not reports[0].passed
        assert reports[0].verdict == "FAIL"
        assert not all_passed(reports)

    def test_nullity_suite_needs_fibers(self, enneper_bundle):
        with pytest.raises(ValueError, match="relative nullity"):
            run_suites(enneper_bundle, names=["nullity_in_bending_kernel"])

    def test_named_subset_runs_in_given_order(self, enneper_bundle):
        reports = run_suites(enneper_bundle, names=["rotation", "minimality"])
        assert [r.identity for r in reports] == ["rotation", "minimality"]

    def test_rank_verdict_does_not_depend_on_suite_order(self):
        # a grid over the chart box scaled by 1.5 leaves the seed's domain,
        # where the chart warns; that warning is no rank miss, whichever
        # suite framed the point first
        base = build_bundle(builtin_seed("enneper"))
        wide = grid_points(shrink_box(base.chart.box, 1.5), default_counts(base.d))
        rows, seen = [], []
        for names in (["rank"], ["minimality", "rank"]):
            bundle = dataclasses.replace(base, points=wide)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports = run_suites(bundle, names=names)
            rows.append(report_to_dict(reports[-1]))
            seen.append({type(w.message) for w in caught})
        assert rows[0] == rows[1]
        assert rows[0]["max_residual"] < 1e-15 and rows[0]["pass"]
        # the domain warning still reaches the caller
        assert seen == [{DomainWarning}, {DomainWarning}]

    def test_tolerance_override_is_recorded(self, enneper_bundle):
        reports = run_suites(
            enneper_bundle, names=["minimality"], tolerances={"minimality": 1e-3}
        )
        assert reports[0].tolerance == 1e-3


class TestDefaults:
    def test_default_counts_by_dimension(self):
        assert default_counts(2) == [10, 10]
        assert default_counts(4) == [4, 4, 3, 3]
        assert default_counts(6) == [4, 4, 2, 2, 2, 2]

    def test_surface_seeds_skip_only_nullity(self):
        for name in ("enneper", "catenoid"):
            suites = default_suites(build_bundle(builtin_seed(name), counts=[2, 2]))
            assert suites == [s for s in SUITE_ORDER if s != "nullity_in_bending_kernel"]

    def test_m4r5_defaults_include_rank_and_nullity(self):
        suites = default_suites(build_bundle(builtin_seed("m4r5"), counts=[2, 2, 2, 2]))
        assert "rank" in suites
        assert "nullity_in_bending_kernel" in suites

    def test_custom_seed_runs_everything_applicable(self):
        seed = dataclasses.replace(builtin_seed("enneper"), name="my-surface")
        bundle = build_bundle(seed, counts=[2, 2])
        suites = default_suites(bundle)
        assert suites == [s for s in SUITE_ORDER if s != "nullity_in_bending_kernel"]

    @pytest.mark.parametrize("source", SEED_NAMES + ("inline-n1", "inline-n2", "inline-n3"))
    def test_plan_follows_the_dimension_not_the_name(self, source, n3_chart):
        if source in SEED_NAMES:
            seed = builtin_seed(source)
        elif source == "inline-n3":
            seed = n3_chart.seed
        else:
            seed = seed_from_json(INLINE_SEEDS[int(source[-1])])
        d = 2 * seed.n
        plans = [
            default_suites(build_bundle(dataclasses.replace(seed, name=name), counts=[2] * d))
            for name in ("custom",) + SEED_NAMES
        ]
        assert plans == [[s for s in SUITE_ORDER if d > 2 or s != "nullity_in_bending_kernel"]] * len(plans)

    def test_every_registered_suite_has_a_tolerance(self):
        assert tuple(DEFAULT_TOLERANCES) == SUITE_ORDER

    def test_suite_order_matches_the_benchmark_copy(self):
        # the verify-random workload derives its expected rows from this copy
        assert SUITE_ORDER == perfbench_module("workloads").SUITES


class TestBundle:
    def test_counts_length_is_validated(self):
        with pytest.raises(ValueError, match="counts must list"):
            build_bundle(builtin_seed("enneper"), counts=[3, 3, 3])

    def test_minimum_two_points_per_axis(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_bundle(builtin_seed("enneper"), counts=[1, 5])

    def test_points_stay_inside_the_box(self, enneper_bundle):
        box, pts = enneper_bundle.chart.box, enneper_bundle.points
        assert np.all(pts >= box[:, 0]) and np.all(pts <= box[:, 1])


class TestReportPlumbing:
    def test_empty_residuals_are_rejected(self):
        with pytest.raises(ValueError, match="no residuals"):
            ResidualReport.from_residuals("x", [], 1.0)

    def test_pass_fail_thresholds(self):
        ok = ResidualReport.from_residuals("x", [0.1, 0.2], 0.5)
        bad = ResidualReport.from_residuals("x", [0.1, 0.7], 0.5)
        assert ok.passed and ok.verdict == "pass"
        assert not bad.passed and bad.verdict == "FAIL"

    def test_control_inversion(self):
        loud = ResidualReport.from_residuals("x_control", [5.0], 1e-2, control=True)
        quiet = ResidualReport.from_residuals("x_control", [1e-9], 1e-2, control=True)
        assert loud.passed and loud.verdict == "expected-fail"
        assert not quiet.passed and quiet.verdict == "CONTROL-TOO-SMALL"
        # controls never gate the aggregate verdict
        assert all_passed([quiet])

    def test_nonfinite_residuals_fail_and_still_render(self):
        nan = float("nan")
        row = ResidualReport.from_residuals("x", [1e-12, nan, 3e-12], 1e-7)
        assert not row.passed and row.verdict == "FAIL"
        assert (row.nonfinite, row.max_residual, row.mean_residual) == (1, 3e-12, 2e-12)
        ctrl = ResidualReport.from_residuals("x_control", [5.0, float("inf")], 1e-2, control=True)
        assert ctrl.verdict == "CONTROL-TOO-SMALL" and ctrl.nonfinite == 1
        none = ResidualReport.from_residuals("y", [nan, nan], 1e-7)
        assert (none.passed, none.nonfinite, none.max_residual) == (False, 2, 0.0)
        rendered = render_json({"reports": [report_to_dict(r) for r in (row, ctrl, none)]})
        assert '"nonfinite": 1' in rendered and "nan" not in rendered

    def test_report_dict_fields(self):
        r = ResidualReport.from_residuals("x", [0.25], 0.5)
        d = report_to_dict(r)
        assert d == {
            "identity": "x",
            "points": 1,
            "max_residual": 0.25,
            "mean_residual": 0.25,
            "tolerance": 0.5,
            "pass": True,
            "control": False,
            "nonfinite": 0,
        }

    def test_vectorized_aggregation_matches_the_point_loop(self):
        rng = np.random.default_rng(11)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-300, 1e300])
        for case in range(300):
            size = int(rng.integers(1, 40))
            vals = rng.lognormal(-20.0, 8.0, size)
            odd = rng.random(size) < 0.15
            vals[odd] = rng.choice(specials, odd.sum())
            tol = float(rng.choice([1e-12, 1e-7, 1.0]))
            control = bool(case % 3 == 0)
            got = ResidualReport.from_residuals("x", vals, tol, control=control)
            want = report_from_residuals_loop("x", vals, tol, control=control)
            assert got == want
            assert render_json(report_to_dict(got)) == render_json(report_to_dict(want))

    def test_the_mean_sums_from_left_to_right(self):
        # 1.0 + 1e-16 rounds to 1.0 twice over; a compensated sum, as
        # Python's sum() is from 3.12 on, reads 0.3333333333333334
        vals = [1.0, 1e-16, 1e-16]
        for row in (ResidualReport.from_residuals("x", vals, 1.0), report_from_residuals_loop("x", vals, 1.0)):
            assert row.mean_residual == 0.3333333333333333

    def test_zero_scale_points_are_measured(self):
        # 0/0 reads 0 and passes; 5/0 reads inf and fails the row, in nonfinite
        row = ResidualReport.from_residuals("x", geometry.relative([0.1, 0.0, 0.3], [1.0, 0.0, 1.0]), 1.0)
        assert (row.points, row.nonfinite, row.max_residual, row.passed) == (3, 0, 0.3, True)
        assert row.mean_residual == pytest.approx(0.4 / 3)
        bad = ResidualReport.from_residuals("x", geometry.relative([0.1, 5.0, 0.3], [1.0, 0.0, 1.0]), 1.0)
        assert (bad.points, bad.nonfinite, bad.max_residual, bad.passed) == (3, 1, 0.3, False)

    def test_json_is_deterministic_and_sorted(self):
        obj = {"b": [1.0, 2], "a": {"z": True, "y": None, "x": "q\"uote"}}
        one = render_json(obj)
        two = render_json({"a": {"x": "q\"uote", "y": None, "z": True}, "b": [1.0, 2]})
        assert one == two
        assert one.index('"a"') < one.index('"b"')
        assert '\\"' in one

    def test_json_floats_round_trip_exactly(self):
        import json

        x = 0.1 + 0.2
        rendered = render_json({"v": x})
        assert json.loads(rendered)["v"] == x

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_are_rejected(self, x):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            render_json({"v": x})

    def test_table_has_verdict_line(self):
        ok = ResidualReport.from_residuals("alpha", [1e-9], 1e-7)
        txt = render_text_table([ok])
        assert "alpha" in txt and txt.endswith("ALL PASS")
        bad = ResidualReport.from_residuals("beta", [1.0], 1e-7)
        txt2 = render_text_table([ok, bad])
        assert txt2.endswith("FAILURES PRESENT")


# inline seeds with quadratic coefficients, the n = 3 one is the n3_chart fixture's
INLINE_SEEDS = {
    1: {
        "n": 1,
        "name": "inline-n1",
        "alpha0": [[0.71, -0.71], [0.68, 0.15], [0.55, -0.67]],
        "mu": [[[0.13, -0.99], [0.83, 0.1], [0.49, -0.1]]],
        "b": [[[0.68, -0.74], [0.48, 0.72], [0.46, 0.42]]],
        "domain": {"radius": 0.6},
    },
    2: {
        "n": 2,
        "name": "inline-n2",
        "alpha0": [[0.19, -0.98], [0.4, 0.78], [0.21, -0.47]],
        "mu": [
            [[0.66, 0.75], [0.39, 0.36], [-0.48, 0.31]],
            [[0.59, -0.81], [0.4, -0.63], [0.62, 0.09]],
        ],
        "b": [
            [[-0.27, -0.96], [-0.53, 0.03], [-0.58, -0.51]],
            [[-0.55, -0.83], [0.53, -0.61], [0.06, -0.75]],
        ],
        "domain": {"radius": 0.6, "w_halfwidth": [0.5]},
    },
}


class TestInlineSeeds:
    @pytest.mark.parametrize("n, counts", [(1, [5, 5]), (2, [3, 3, 2, 2]), (3, [2] * 6)])
    def test_default_suites_all_pass(self, n, counts, n3_chart):
        seed = n3_chart.seed if n == 3 else seed_from_json(INLINE_SEEDS[n])
        reports = run_suites(build_bundle(seed, counts=counts))
        assert [r.identity for r in reports if not r.passed] == []
        assert all(r.max_residual > CONTROL_FLOOR for r in reports if r.control)


# alpha0 = mu = 1 and b = (0, 0, 1): the quadratic control field's T_*
# vanishes where x0 = x1 = 0, which the [3, 3, 2, 2, 2, 2] grid samples at
# 16 of its 144 points, while its second partials do not
FLAT_N3 = {
    "n": 3,
    "name": "flat-n3",
    "alpha0": [[1.0, 0.0]],
    "mu": [[[1.0, 0.0]]] * 3,
    "b": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
    "domain": {"radius": 0.8, "w_halfwidth": [0.5, 0.5]},
}


def test_control_measures_points_without_a_tangential_part():
    # nabla T_* is measured against its terms, so the 16 points where T_* = 0
    # read a finite value like every other
    bundle = build_bundle(seed_from_json(FLAT_N3), counts=[3, 3, 2, 2, 2, 2])
    row, ctrl = run_suites(bundle, ["bending_tpar"])
    assert (row.nonfinite, row.passed) == (0, True)
    assert ctrl.identity == "bending_tpar_control"
    assert (ctrl.points, ctrl.nonfinite) == (144, 0)
    assert CONTROL_FLOOR < ctrl.max_residual < 10.0
    assert ctrl.passed


def test_parallel_rows_do_not_depend_on_the_chart_units():
    # enneper on a disc of radius 1e12 on its default grid: f_* reaches
    # about 1e24 and Gamma about 1e-12, and both rows still read roundoff,
    # measured against the terms that cancel in nabla J and nabla T_*
    bundle = seed_bundle("enneper-r1e12")
    tpar, control = suites.bending_tpar(bundle)
    assert suites.kaehler_parallel(bundle)[0].max() <= 1e-14
    assert tpar.max() <= 1e-14
    assert control.min() > 0.5


def _bumped(jet, axis: int, power: int = 2, size: float = 1e-6):
    """``jet`` plus the field size x0^power e_axis, in closed form."""
    x0 = jet.coords[..., 0]
    value, d1, d2 = jet.value.copy(), jet.d1.copy(), jet.d2.copy()
    value[..., axis] += size * x0**power
    d1[..., 0, axis] += size * power * x0 ** (power - 1)
    d2[..., 0, 0, axis] += size * power * (power - 1) * x0 ** (power - 2)
    return dataclasses.replace(jet, value=value, d1=d1, d2=d2)


@pytest.mark.parametrize("name", SEED_NAMES)
def test_a_small_bump_fails_the_parallel_rows(name):
    # f + 1e-6 x0^2 e_last bends J out of parallel, and T + 1e-6 x0^2 e0
    # bends T_*: each row FAILs by more than 20 times its tolerance
    seed = builtin_seed(name)
    f, T = build_bundle(seed)._grid_jets
    for jets, suite in (((_bumped(f, -1), T), suites.kaehler_parallel), ((f, _bumped(T, 0)), suites.bending_tpar)):
        bundle = build_bundle(seed)
        bundle.__dict__["_grid_jets"] = jets
        assert suite(bundle)[0].max() > 20 * DEFAULT_TOLERANCES[suite.__name__]


@pytest.mark.parametrize("name", SEED_NAMES)
def test_a_small_bump_fails_codazzi_b(name):
    # the x0^2 and x0^3 bumps of T along e0 and of f along e_last: codazzi_b
    # reads no third partial, and still FAILs each by more than 5 times its
    # tolerance
    seed = builtin_seed(name)
    f, T = build_bundle(seed)._grid_jets
    for power in (2, 3):
        for jets in ((f, _bumped(T, 0, power)), (_bumped(f, -1, power), T)):
            bundle = build_bundle(seed)
            bundle.__dict__["_grid_jets"] = jets
            row, _ = run_suites(bundle, ["codazzi_b"])
            assert row.max_residual > 5 * DEFAULT_TOLERANCES["codazzi_b"]


@pytest.mark.parametrize("name", SEED_NAMES)
def test_a_scaled_bump_fails_b_three_route(name):
    # f and T scaled by 1e3, T bumped by 1e-5 * 1e3 x0^2 e0: the B routes
    # shrink by 1e3 with the chart, and b_three_route, relative to their
    # largest G-norm with no floor, FAILs by more than 20 times its tolerance
    seed = builtin_seed(name)
    f, T = build_bundle(seed)._grid_jets
    bundle = build_bundle(seed)
    bundle.__dict__["_grid_jets"] = (scaled_jet(f, 1e3), _bumped(scaled_jet(T, 1e3), 0, size=1e-2))
    row, = run_suites(bundle, ["b_three_route"])
    assert row.nonfinite == 0
    assert row.max_residual > 20 * DEFAULT_TOLERANCES["b_three_route"]


def _moved_rows(seed, names, move):
    """The max residual of each named row, and of its control, on the
    default grid with the chart's and the conjugate's jets both mapped by
    ``move``."""
    f, T = build_bundle(seed)._grid_jets
    bundle = build_bundle(seed)
    bundle.__dict__["_grid_jets"] = (move(f), move(T))
    return {r.identity: r.max_residual for r in run_suites(bundle, names)}


@pytest.mark.parametrize("name", SEED_NAMES)
def test_relative_rows_do_not_depend_on_a_homothety(name):
    # f and T scaled by lambda: G scales by lambda^2 and A by 1/lambda, and
    # the unit-free rows keep their roundoff readings, with no absolute
    # floor on ||G||_F, ||A||_G, ||A T_*||_G, ||B||_G, ||T_hat||_F or the B
    # routes' norms to blind them, and the bending_bat, bending_tpar,
    # fundamental_wedge and codazzi_b controls keep their teeth (the
    # bending_tpar control, a fixed field, has T_* falling as 1/lambda, to
    # 1e-16 at 1e16, and the codazzi_b control, a fixed form, has both its
    # terms falling as 1/lambda^3); at lambda = 1e-15 every partial of T
    # lies below 1e-14, and the Gauss tangency rows read it all the same
    seed = builtin_seed(name)
    names = ["minimality", "anticommutation", "gauss_preservation", "bending_bat", "fundamental_wedge", "codazzi_b"]
    names += ["b_three_route"]
    names += FAMILY_ROWS + FRAME_ROWS
    names = [row for row in names if row in default_suites(build_bundle(seed))]
    unscaled = _moved_rows(seed, names, lambda jet: jet)
    tiny = ["family_normal", "gauss_preservation", "fundamental_wedge"]
    for factor, rows in ((1e-8, names), (1e8, names), (1e16, names), (1e-15, tiny)):
        got = _moved_rows(seed, rows, lambda jet: scaled_jet(jet, factor))
        for row in rows:
            assert unscaled[row] / 4 <= got[row] <= 4 * unscaled[row], (factor, row, got[row], unscaled[row])
        for control in {"bending_bat", "bending_tpar", "fundamental_wedge", "codazzi_b", "gauss_preservation"} & set(rows):
            assert got[f"{control}_control"] >= CONTROL_FLOOR, (factor, control)


def _z_scaled(jet, s):
    """The jet in the coordinate z' = z / s, z = x0 + i x1: the partials
    along x0 and x1 times s, so d2 entry (i, j) times s_i s_j."""
    scale = np.ones(jet.d)
    scale[:2] = s
    return dataclasses.replace(jet, d1=scale[:, None] * jet.d1, d2=np.multiply.outer(scale, scale)[..., None] * jet.d2)


@pytest.mark.parametrize("name", SEED_NAMES)
def test_rows_do_not_depend_on_a_scaling_of_z(name):
    # z -> s z is holomorphic and commutes with J, so every identity holds in
    # the new coordinates: every row keeps its roundoff reading (0.61 to 2.24
    # times the unscaled one on the three built-ins) and every control its
    # teeth (0.78 and above)
    seed = builtin_seed(name)
    names = default_suites(build_bundle(seed))
    unscaled = _moved_rows(seed, names, lambda jet: jet)
    for s in (1e-3, 1e3):
        got = _moved_rows(seed, names, lambda jet: _z_scaled(jet, s))
        for row, was in unscaled.items():
            if row.endswith("_control"):
                assert got[row] >= CONTROL_FLOOR, (s, row, got[row])
            else:
                assert was / 4 <= got[row] <= 4 * was, (s, row, got[row], was)


@pytest.mark.parametrize("name", SEED_NAMES)
def test_frame_rows_do_not_depend_on_an_ambient_rotation(name):
    # f and T rotated by one random orthogonal Q of the ambient space: E,
    # A_hat, B_hat, Gamma_hat and T_hat are unchanged up to rounding, so the
    # rows read in the orthonormal frame, fundamental_wedge and codazzi_b
    # among them, keep their roundoff readings, and the bending_tpar control
    # its teeth; enneper's jets lie along the coordinate axes and round below
    # the generic level, which a rotation lifts by up to 9 times in its
    # parallel rows (to 7.3e-15 over 20 draws of Q), so a reading may also
    # exceed 4 times the unrotated one by 32 eps
    seed = builtin_seed(name)
    rows = [row for row in FRAME_ROWS + ["fundamental_wedge", "codazzi_b"] if row in default_suites(build_bundle(seed))]
    unrotated = _moved_rows(seed, rows, lambda jet: jet)
    m = build_bundle(seed).chart.ambient
    Q = np.linalg.qr(np.random.default_rng(ROTATION_DRAW).standard_normal((m, m)))[0]
    rotated = _moved_rows(
        seed, rows, lambda jet: dataclasses.replace(jet, value=jet.value @ Q.T, d1=jet.d1 @ Q.T, d2=jet.d2 @ Q.T)
    )
    for row in rows:
        assert unrotated[row] / 4 <= rotated[row] <= 4 * unrotated[row] + 32 * EPS, (row, rotated[row], unrotated[row])
    assert rotated["bending_tpar_control"] >= CONTROL_FLOOR


@pytest.mark.parametrize("name", SIX_SEEDS)
def test_tangential_derivative_matches_the_route_through_gamma(name):
    # nabla T_* in the orthonormal frame, from E, Gamma_hat and H, against
    # the route through d_i T_* and the Christoffels, both with G^{-1}, on
    # the bending_tpar control and the bending_bat trivial field, point by
    # point relative to the largest of the three terms: within 2 eps
    # kappa^2, kappa = ||C||_F ||C^{-1}||_F >= cond(f_*), the rounding of
    # the G^{-1} route (the routes differ by at most 1.4e-15 on the
    # built-ins and at n = 1, 1.1e-14 at n = 2, and 3.1e-13 at n = 3, where
    # cond(f_*) reaches 27)
    bundle = seed_bundle(name)
    frame = bundle.frame
    kappa2 = (frame.chol**2).sum(axis=(-2, -1)) * (frame.chol_inv**2).sum(axis=(-2, -1))
    bound = 2 * EPS * kappa2
    for jet in (suites._quadratic_control_jet(bundle), bundle.trivial_jet(stream=202)):
        v = bending.Variation(frame, jet)
        cols = bending.tangential_covariant_derivative(v)
        ref = in_orthonormal_columns(frame, tangential_covariant_derivative_by_gamma(v))
        miss = np.abs(cols[0] - ref).max(axis=(-2, -1)) / np.abs(cols[1:]).max(axis=(0, -2, -1))
        assert (miss <= bound).all(), (name, miss.max())


@pytest.mark.parametrize("name", SIX_SEEDS)
def test_family_rows_bound_full_member_frames(name):
    # the family rows read theta-free quantities; full member frames at 64
    # phases check the metric bound and each mutant's kill
    bundle = seed_bundle(name)
    f, T = bundle._grid_jets
    phases = 2 * math.pi * np.arange(64) / 64
    mutants = {
        "T bump": (f, _bumped(T, 0)),
        "f bump": (_bumped(f, -1), T),
        "2T": (f, scaled_jet(T, 2.0)),
        "-T": (f, scaled_jet(T, -1.0)),
    }
    for case, jets in mutants.items():
        mutant = dataclasses.replace(bundle)
        mutant.__dict__["_grid_jets"] = jets
        failed = {r.identity for r in run_suites(mutant, FAMILY_ROWS) if not r.passed}
        assert failed, case
        if case == "2T":
            assert {"family_metric", "family_shape"} <= failed
        if case == "-T":
            assert "family_shape" in failed
        bound = suites.family_metric(mutant)[0]
        sampled = sampled_family_metric(*jets, phases)
        # the sampled deviation carries the member frames' own rounding, a
        # few ulps of ||G||, which decides the comparison where T -> -T
        # leaves both at roundoff; the bound is at most twice the largest
        # deviation, which the phases pi/4, pi/2 and 3 pi/4 attain
        assert (bound >= sampled - 8 * EPS * (1.0 + sampled)).all(), case
        if case != "-T":
            assert (bound <= 2 * sampled).all(), case


def test_one_jet_and_one_frame_per_chart_and_point_stack(monkeypatch):
    """A default m4r5 run expands its seed once and builds two charts, f
    and the stack of f and its conjugate, and evaluates the stack once, on
    the grid, from one set of coefficient rows; the trivial control fields
    are combined from the grid jets, and the phase family's rows read f's
    frame and fbar's jet, with no member built.  The one frame builds its
    orthonormal rows E, A_hat and Gamma_hat once each, for every row that
    reads them, and each variation field along it computes its B_hat,
    tau_hat, T_hat and dN once, and ||B||_G and ||A T_*||_G once.
    Nothing calls LAPACK per point to factor G, to take a normal or to
    decompose an operator: the grid frame, the only frame stack, takes its
    normal and the Cholesky factor of G with its inverse from one
    Householder pass, with no solve, inverse, Cholesky factor or
    determinant, and no eigh or eigvalsh: the shape rows are polynomial in
    A_hat, and every G-norm is a Frobenius norm.  Every contraction is a
    matmul: nothing calls einsum."""
    builds, calls, frames, connections, b_forms, chains, horners = [], [], [], [], [], [], []
    einsums, crosses, gnorms = [], [], []
    factorizations = {name: [] for name in ("solve", "inv", "cholesky", "det", "eigvalsh", "eigh")}
    series_init, series_jet = SeriesChart.__init__, SeriesChart.jet_batch
    frame = geometry.point_frame
    christoffel = geometry.christoffel
    b_formula = bending.B_by_formula
    build_chain = weierstrass.build_chain
    horner_many = kernels.horner_many
    cross_columns = kernels.cross_columns
    gnorm_op = geometry.gnorm_op
    einsum = np.einsum
    pieces = {name: [] for name in ("tau_hat", "tstar_hat", "normal_variation")}
    frame_pieces = {name: [] for name in ("tangent_rows", "shape_hat", "christoffel_hat")}

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        series_init(self, *args, **kwargs)

    def counted_jet(self, pts, order=2):
        # every chart stays alive in builds, so no two charts share an id
        calls.append((id(self), np.asarray(pts).tobytes(), order))
        return series_jet(self, pts, order)

    def counted_frame(jet, *args, **kwargs):
        frames.append(jet)
        return frame(jet, *args, **kwargs)

    def counted_christoffel(jet, rows):
        connections.append(jet)
        return christoffel(jet, rows)

    def counted_b_formula(v):
        b_forms.append(v)
        return b_formula(v)

    def counted_chain(seed):
        chains.append(seed)
        return build_chain(seed)

    def counted_horner(coeffs, dz):
        horners.append(coeffs)
        return horner_many(coeffs, dz)

    def counted_linalg(name):
        routine = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            factorizations[name].append(np.shape(a))
            return routine(a, *args, **kwargs)

        return counted

    def counted_cross(d1):
        crosses.append(d1.shape)
        return cross_columns(d1)

    def counted_gnorm(M):
        gnorms.append(np.shape(M))
        return gnorm_op(M)

    def counted_einsum(*args, **kwargs):
        einsums.append(args[0])
        return einsum(*args, **kwargs)

    def counted_piece(cls, name, record):
        piece = vars(cls)[name].func

        def counted(v):
            record[name].append(v)
            return piece(v)

        return counted

    monkeypatch.setattr(SeriesChart, "__init__", counted_init)
    monkeypatch.setattr(SeriesChart, "jet_batch", counted_jet)
    for module in (geometry, suites):
        monkeypatch.setattr(module, "point_frame", counted_frame)
    monkeypatch.setattr(geometry, "christoffel", counted_christoffel)
    monkeypatch.setattr(bending, "B_by_formula", counted_b_formula)
    monkeypatch.setattr(weierstrass, "build_chain", counted_chain)
    for name in pieces:
        monkeypatch.setattr(vars(bending.Variation)[name], "func", counted_piece(bending.Variation, name, pieces))
    for name in frame_pieces:
        monkeypatch.setattr(vars(geometry.PointFrame)[name], "func", counted_piece(geometry.PointFrame, name, frame_pieces))
    for name in factorizations:
        monkeypatch.setattr(np.linalg, name, counted_linalg(name))
    monkeypatch.setattr(np, "einsum", counted_einsum)
    monkeypatch.setattr(kernels, "cross_columns", counted_cross)
    for module in (geometry, bending, suites):
        monkeypatch.setattr(module, "gnorm_op", counted_gnorm)
    seed = builtin_seed("m4r5")  # checks itself on a domain sample, by Horner
    monkeypatch.setattr(kernels, "horner_many", counted_horner)
    bundle = build_bundle(seed)
    run_suites(bundle)
    assert len(chains) == 1 and chains[0] is bundle.seed
    assert len(builds) == 2
    assert len(calls) == len(set(calls))
    # f and fbar on the grid, one stack: one jet call and one Horner
    # evaluation, of the seed's rows for the 2-jets
    assert len(calls) == 1
    assert builds[1].theta == (0.0, math.pi / 2) and calls[0][0] == id(builds[1])
    assert len(horners) == 1 and horners[0] is bundle.seed.jet_rows(2)[0]
    # the grid frame; first variations along f + tT build none
    assert len(frames) == 1
    # the grid frame's one connection
    assert len(connections) == 1
    # B once per field: the conjugate, fundamental_wedge's position field
    # and bending_bat's trivial field
    assert len(b_forms) == 3 and b_forms[0] is bundle.conjugate
    assert len({id(v) for v in b_forms}) == 3
    # T_hat for the conjugate, the bending_tpar control and the bending_bat
    # control; dN for the conjugate and the gauss_preservation control;
    # tau_hat for those two and the two other fields whose B is formed
    assert len(pieces["tstar_hat"]) == 3 and pieces["tstar_hat"][0] is bundle.conjugate
    assert len(pieces["normal_variation"]) == 2 and len(pieces["tau_hat"]) == 4
    assert {id(v) for v in pieces["normal_variation"]} <= {id(v) for v in pieces["tau_hat"]}
    # E, A_hat and Gamma_hat once each, on the grid frame
    assert {name: [id(fr) for fr in got] for name, got in frame_pieces.items()} == {
        name: [id(bundle.frame)] for name in frame_pieces
    }
    counts = {name: len(shapes) for name, shapes in factorizations.items()}
    assert counts == {"solve": 0, "inv": 0, "cholesky": 0, "det": 0, "eigvalsh": 0, "eigh": 0}
    # G-norms of 14 operators per point, each the Frobenius norm of its
    # frame matrix: ||A_hat||, family_shape's miss, A_hat J_hat + J_hat
    # A_hat, ||A_hat T_hat|| and the bending_bat numerator for the conjugate and
    # the trivial control, ||B_hat|| of the conjugate (once, for
    # fundamental_wedge, b_three_route and nullity_in_bending_kernel) and
    # of the position field, the variation route's B_hat and three route
    # differences, and the nullity miss; codazzi_b reads no G-norm of B
    assert len(gnorms) == 12
    matrices = sum(math.prod(shape[:-2]) for shape in gnorms)
    assert matrices == 14 * len(bundle.points) == 2016
    assert einsums == []
    # one Householder pass per verify, the grid frame's
    assert crosses == [(144, 4, 5)]


# the n = 3 seed of the benchmark's verify-random workload
RANDOM_N3 = {
    "n": 3,
    "name": "random-n3",
    "alpha0": [
        [0.7744002879767552, 0.6326959727874981],
        [0.46584040503366453, -0.2526998803354688],
        [-0.4380057508005345, -0.5159253991036703],
    ],
    "mu": [
        [
            [0.9614855557277381, 0.27485546406597533],
            [-0.189779668790229, -0.6395422203485468],
            [0.46303533412830783, -0.7374594324635144],
        ],
        [
            [-0.9988670161311877, -0.047588697031729285],
            [-0.8788671114443402, 0.17176585373996622],
            [-0.9226730150873229, -0.3748225544518735],
        ],
        [
            [0.588448629309679, -0.8085346069671724],
            [0.2394981387356846, -0.732484001022476],
            [-0.4949698155185286, -0.18930443388530643],
        ],
    ],
    "b": [
        [
            [0.015938656265897053, 0.9998729715501052],
            [0.12071215071760712, -0.9315930905698199],
            [0.8667035559423345, 0.04789816276521723],
        ],
        [
            [0.9723524231957934, -0.23351823291826418],
            [-0.812135110520666, -0.37292263509765095],
            [0.573548295328894, 0.6369836515107734],
        ],
        [
            [0.20846543268849402, 0.9780297354242349],
            [-0.5618143289661711, 0.5904901659680188],
            [0.4294280294404987, 0.3386592415502644],
        ],
    ],
    "domain": {"radius": 0.6, "w_halfwidth": [0.5, 0.5]},
}


@pytest.mark.parametrize(
    "seed, counts",
    [(builtin_seed("m4r5"), None), (seed_from_json(RANDOM_N3), [2] * 6)],
    ids=["m4r5", "random-n3"],
)
def test_each_suite_alone_matches_the_full_run(seed, counts):
    # the bundle's shared frame and conjugate jet carry nothing from one
    # suite to the next
    bundle = build_bundle(seed, counts=counts)
    full = run_suites(bundle)
    for name in default_suites(bundle):
        alone = run_suites(build_bundle(seed, counts=counts), [name])
        assert alone == [r for r in full if r.identity in (name, f"{name}_control")]


def test_every_traced_boundary_resolves_in_the_package():
    # a traced benchmark run wraps each (module, attribute) of
    # perfbench/spans.py, looked up with a bare getattr, so renaming one of
    # them breaks every ``--trace 1`` run
    spans = perfbench_module("spans")
    for span, (module, attr) in spans.FUNCTIONS.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, attr in spans.METHODS.items():
        assert callable(getattr(SeriesChart, attr, None)), span


def test_n5_regression_seed_passes_every_default_suite():
    """Draw 2 (0-based) of ``workloads.random_seed`` at n = 5 from generator
    20261021, on the grid [2] * 10: every default suite passes, and every
    control clears its floor.  The routes through G^{-1} read
    ``bending_tpar`` at 2.5e2 times its tolerance, ``fundamental_wedge`` at
    1.3e2 and ``codazzi_b`` at 2.0e2; read in the orthonormal frame they are
    1.7e-12, 5.0e-13 and 2.2e-8."""
    data = json.loads((Path(__file__).parent / "regression_n5_seed.json").read_text(encoding="ascii"))
    rng = np.random.default_rng(20261021)
    draws = [perfbench_module("workloads").random_seed(rng, 5) for _ in range(3)]
    assert json.loads(json.dumps(draws[2])) == data
    reports = run_suites(build_bundle(seed_from_json(data), counts=[2] * 10))
    assert {r.identity for r in reports if not r.control} == set(SUITE_ORDER)
    failing = [(r.identity, r.max_residual) for r in reports if not r.passed]
    assert not failing


def test_the_n5_fixture_keeps_a_unit_normal_under_a_homothety_of_1e16():
    """f and T of the n = 5 fixture scaled by 1e16: a cofactor vector's
    entries would grow as 1e16^10 and overflow, but the Householder pass
    takes no product of its pivots, so every point keeps a unit normal and
    the rank row passes."""
    data = json.loads((Path(__file__).parent / "regression_n5_seed.json").read_text(encoding="ascii"))
    bundle = build_bundle(seed_from_json(data), counts=[2] * 10)
    f, T = bundle._grid_jets
    bundle.__dict__["_grid_jets"] = (scaled_jet(f, 1e16), scaled_jet(T, 1e16))
    assert np.abs(np.linalg.norm(bundle.frame.normal, axis=-1) - 1.0).max() <= 4 * EPS
    row, = run_suites(bundle, ["rank"])
    assert row.passed and row.nonfinite == 0
