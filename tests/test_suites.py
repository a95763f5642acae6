import dataclasses
import math
import warnings

import numpy as np
import pytest

import minkaehler.bending as bending
import minkaehler.geometry as geometry
import minkaehler.suites as suites
from minkaehler import builtin_seed
from minkaehler.bending import TrivialField
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
from minkaehler.weierstrass import SeriesChart, associated, seed_from_json

from oracles import benchmark_workloads, report_from_residuals_loop

SEED_NAMES = ("enneper", "catenoid", "m4r5")


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
        assert rows[0]["max_residual"] == 0.0 and rows[0]["pass"]
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

    def test_surface_seeds_skip_rank_and_nullity(self):
        for name in ("enneper", "catenoid"):
            suites = default_suites(build_bundle(builtin_seed(name), counts=[2, 2]))
            assert "rank" not in suites
            assert "nullity_in_bending_kernel" not in suites
            assert "minimality" in suites

    def test_m4r5_defaults_include_rank_and_nullity(self):
        suites = default_suites(build_bundle(builtin_seed("m4r5"), counts=[2, 2, 2, 2]))
        assert "rank" in suites
        assert "nullity_in_bending_kernel" in suites

    def test_custom_seed_runs_everything_applicable(self):
        seed = dataclasses.replace(builtin_seed("enneper"), name="my-surface")
        bundle = build_bundle(seed, counts=[2, 2])
        suites = default_suites(bundle)
        assert suites == [s for s in SUITE_ORDER if s != "nullity_in_bending_kernel"]

    def test_every_registered_suite_has_a_tolerance(self):
        assert tuple(DEFAULT_TOLERANCES) == SUITE_ORDER

    def test_suite_order_matches_the_benchmark_copy(self):
        # the verify-random workload derives its expected rows from this copy
        assert SUITE_ORDER == benchmark_workloads().SUITES


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
            "excluded": 0,
        }

    def test_vectorized_aggregation_matches_the_point_loop(self):
        rng = np.random.default_rng(11)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, 1e-300, 1e300])
        for case in range(300):
            size = int(rng.integers(1, 40))
            vals = rng.lognormal(-20.0, 8.0, size)
            odd = rng.random(size) < 0.15
            vals[odd] = rng.choice(specials, odd.sum())
            res = np.ma.masked_array(vals, mask=rng.random(size) < 0.2) if case % 2 else vals
            tol = float(rng.choice([1e-12, 1e-7, 1.0]))
            control = bool(case % 3 == 0)
            got = ResidualReport.from_residuals("x", res, tol, control=control)
            want = report_from_residuals_loop("x", res, tol, control=control)
            assert got == want
            assert render_json(report_to_dict(got)) == render_json(report_to_dict(want))

    def test_masked_points_are_excluded(self):
        res = np.ma.masked_array([0.1, 5e13, 0.3], mask=[False, True, False])
        row = ResidualReport.from_residuals("x", res, 1.0)
        assert (row.points, row.excluded, row.nonfinite, row.max_residual) == (3, 1, 0, 0.3)
        assert row.mean_residual == pytest.approx(0.2)
        assert row.passed and report_to_dict(row)["excluded"] == 1
        # a row with nothing left to measure cannot pass
        empty = ResidualReport.from_residuals("x", np.ma.masked_all(2), 1.0)
        assert (empty.excluded, empty.passed) == (2, False)

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

    def test_non_finite_values_are_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"v": float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            render_json({"v": float("inf")})

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
# 16 of its 144 points
FLAT_N3 = {
    "n": 3,
    "name": "flat-n3",
    "alpha0": [[1.0, 0.0]],
    "mu": [[[1.0, 0.0]]] * 3,
    "b": [[[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 0.0]]],
    "domain": {"radius": 0.8, "w_halfwidth": [0.5, 0.5]},
}


def test_control_excludes_points_without_a_tangential_scale():
    bundle = build_bundle(seed_from_json(FLAT_N3), counts=[3, 3, 2, 2, 2, 2])
    row, ctrl = run_suites(bundle, ["bending_tpar"])
    assert (row.excluded, row.passed) == (0, True)
    assert ctrl.identity == "bending_tpar_control"
    assert (ctrl.points, ctrl.excluded) == (144, 16)
    # the clamped denominator read 8e13 at the excluded points
    assert CONTROL_FLOOR < ctrl.max_residual < 10.0
    assert ctrl.passed


def _family_rows(bundle, frames):
    """The family rows from full member frames at phases pi/6 .. 5 pi/6."""
    base = bundle.frame
    gscale = np.maximum(np.linalg.norm(base.metric, axis=(-2, -1)), 1e-14)
    ascale = np.maximum(np.linalg.norm(base.shape_operator, axis=(-2, -1)), 1e-14)
    metric = normal = shape = np.zeros(len(bundle.points))
    for k, fr in enumerate(frames, start=1):
        theta = k * math.pi / 6
        expected = base.shape_operator @ (math.cos(theta) * np.eye(bundle.d) + math.sin(theta) * bundle.J)
        metric = np.maximum(metric, np.linalg.norm(fr.metric - base.metric, axis=(-2, -1)) / gscale)
        normal = np.maximum(normal, np.linalg.norm(fr.normal - base.normal, axis=-1))
        shape = np.maximum(shape, np.linalg.norm(fr.shape_operator - expected, axis=(-2, -1)) / ascale)
    return metric, normal, shape


@pytest.mark.parametrize("name", SEED_NAMES)
def test_family_rows_match_full_member_frames(name):
    bundle = build_bundle(builtin_seed(name))
    thetas = [k * math.pi / 6 for k in range(1, 6)]
    # full frames of the combined member jets: the same bytes
    combined = _family_rows(bundle, [geometry.point_frame(bundle.member_jet(t)) for t in thetas])
    for got, want in zip(bundle.family, combined):
        np.testing.assert_array_equal(got, want)
    # full frames of the members built as charts of their own
    charts = [associated(bundle.seed, t, bundle.chain) for t in thetas]
    built = _family_rows(bundle, [geometry.point_frame(c.jet(bundle.points)) for c in charts])
    for got, want in zip(bundle.family, built):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_one_jet_and_one_frame_per_chart_and_point_stack(monkeypatch):
    """A default m4r5 run builds two charts, f and its conjugate, and
    evaluates each once, on the grid; the family members and the trivial
    control fields are combined from the two grid jets.  The one frame
    builds its Christoffel symbols once, for every suite that reads them,
    and each variation field along it computes its B, T_* and dN once.
    Nothing solves against G: the grid frame inverts G and its Cholesky
    factor L once each, and each of the five family members inverts its
    own G, taking no Cholesky factor."""
    builds, calls, trivial_calls, frames, connections, b_forms = [], [], [], [], [], []
    factorizations = {name: [] for name in ("solve", "inv", "cholesky")}
    series_init, series_jet = SeriesChart.__init__, SeriesChart.jet_batch
    trivial_jet, frame = TrivialField.jet_batch, geometry.point_frame
    christoffel = geometry.christoffel
    b_formula = bending.B_by_formula
    pieces = {name: [] for name in ("tstar", "normal_variation")}

    def counted_init(self, *args, **kwargs):
        builds.append(self)
        series_init(self, *args, **kwargs)

    def counted_jet(self, pts, order=2):
        # every chart stays alive in builds, so no two charts share an id
        calls.append((id(self), np.asarray(pts).tobytes(), order))
        return series_jet(self, pts, order)

    def counted_trivial_jet(self, pts, order=2):
        trivial_calls.append(order)
        return trivial_jet(self, pts, order)

    def counted_frame(jet, *args, **kwargs):
        frames.append(jet)
        return frame(jet, *args, **kwargs)

    def counted_christoffel(jet, metric_inv):
        connections.append(jet)
        return christoffel(jet, metric_inv)

    def counted_b_formula(v):
        b_forms.append(v)
        return b_formula(v)

    def counted_linalg(name):
        routine = getattr(np.linalg, name)

        def counted(a, *args, **kwargs):
            factorizations[name].append(np.shape(a))
            return routine(a, *args, **kwargs)

        return counted

    def counted_piece(name):
        piece = vars(bending.Variation)[name].func

        def counted(v):
            pieces[name].append(v)
            return piece(v)

        return counted

    monkeypatch.setattr(SeriesChart, "__init__", counted_init)
    monkeypatch.setattr(SeriesChart, "jet_batch", counted_jet)
    monkeypatch.setattr(TrivialField, "jet_batch", counted_trivial_jet)
    for module in (geometry, bending, suites):
        monkeypatch.setattr(module, "point_frame", counted_frame)
    monkeypatch.setattr(geometry, "christoffel", counted_christoffel)
    monkeypatch.setattr(bending, "B_by_formula", counted_b_formula)
    for name in pieces:
        monkeypatch.setattr(vars(bending.Variation)[name], "func", counted_piece(name))
    for name in factorizations:
        monkeypatch.setattr(np.linalg, name, counted_linalg(name))
    bundle = build_bundle(builtin_seed("m4r5"))
    run_suites(bundle)
    assert len(builds) == 2
    assert len(calls) == len(set(calls))
    assert not trivial_calls
    # f and fbar on the grid
    assert len(calls) == 2
    # the grid frame; family members and first variations along f + tT
    # build none
    assert len(frames) == 1
    # the grid frame's one connection
    assert len(connections) == 1
    # B once per field: the conjugate, fundamental_wedge's position field
    # and bending_bat's trivial field
    assert len(b_forms) == 3 and b_forms[0] is bundle.conjugate
    assert len({id(v) for v in b_forms}) == 3
    # T_* for the conjugate and the bending_tpar and bending_bat controls;
    # dN for the conjugate and the gauss_preservation control
    assert len(pieces["tstar"]) == 3 and len(pieces["normal_variation"]) == 2
    # G^{-1} and L^{-1} of the grid frame and G^{-1} of each family member
    counts = {name: len(shapes) for name, shapes in factorizations.items()}
    assert counts == {"solve": 0, "inv": 7, "cholesky": 1}


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
