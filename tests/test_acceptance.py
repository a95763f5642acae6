"""End-to-end acceptance checks for the construction and its verifiers.

Each test covers one acceptance criterion, measures everything it claims,
and prints a single PASS/FAIL line with the observed numbers (visible in
any pytest run).  Timed criteria measure wall time.
"""

import math
import time

import numpy as np
import pytest

from minkaehler.bending import (
    B_by_formula,
    Variation,
    b_route_agreement,
    bending_residual,
    classify_triviality,
    conjugate_field,
    make_trivial,
    recover_bending_decomposition,
    rotation_coefficient,
    trivial_jet,
)
from minkaehler.charts import (
    ProductChart,
    grid_points,
    random_points,
    shrink_box,
)
from minkaehler.gausspar import (
    extract_from_hypersurface,
    gauss_round_trip,
    make_cylinder_bending,
    minimality_criterion,
)
from minkaehler.geometry import (
    gnorm_op,
    point_frame,
    rank_and_nullity,
)
from minkaehler.seeds import builtin_seed
from minkaehler.suites import (
    CONTROL_FLOOR,
    DEFAULT_RNG_SEED,
    DEFAULT_TOLERANCES,
    build_bundle,
    run_suites,
)
from minkaehler.weierstrass import SeriesChart

from oracles import (
    catenoid_metric,
    ellipse_chart,
    frame_and_jet,
    gnorm_coord,
    metric_of,
    mix_jets,
    shape_operator,
)


def announce(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def minimality_defect(chart, p) -> float:
    fr = point_frame(chart.jet(p))
    A = shape_operator(fr)
    return abs(float(np.trace(A))) / max(gnorm_coord(fr, A), 1e-14)


@pytest.fixture(scope="module")
def catenoid_bundle():
    return build_bundle(builtin_seed("catenoid"))  # 10 x 10 grid


@pytest.fixture(scope="module")
def m4r5_bundle():
    return build_bundle(builtin_seed("m4r5"))  # 4 x 4 x 3 x 3 grid


def test_criterion_1_catenoid_minimality_and_conjugate_isometry(capsys):
    t0 = time.perf_counter()
    seed = builtin_seed("catenoid")
    chart = SeriesChart(seed)
    mate = SeriesChart(seed, math.pi / 2)
    pts = grid_points(shrink_box(chart.box, 0.9), [10, 10])
    assert len(pts) == 100
    worst_min = max(minimality_defect(chart, p) for p in pts)
    worst_iso = 0.0
    for p in pts:
        z = seed.basepoint + p[0] + 1j * p[1]
        dev = float(np.abs(metric_of(mate, p) - catenoid_metric(z)).max())
        worst_iso = max(worst_iso, dev)
    elapsed = time.perf_counter() - t0
    ok = worst_min < 1e-8 and worst_iso < 1e-8 and elapsed < 5.0
    announce(
        capsys,
        1,
        ok,
        f"catenoid |trace A|/||A|| {worst_min:.2e} < 1e-08, conjugate metric vs "
        f"helicoid closed form {worst_iso:.2e} < 1e-08, {elapsed:.2f}s < 5s "
        f"(100 grid points)",
    )
    assert worst_min < 1e-8
    assert worst_iso < 1e-8
    assert elapsed < 5.0


def test_criterion_2_m4r5_minimal_rank_two(capsys):
    t0 = time.perf_counter()
    seed = builtin_seed("m4r5")
    chart = SeriesChart(seed)
    rng = np.random.default_rng(DEFAULT_RNG_SEED)
    pts = random_points(shrink_box(chart.box, 0.9), 200, rng)
    worst_min = 0.0
    ranks = set()
    for p in pts:
        fr = point_frame(chart.jet(p))
        A = shape_operator(fr)
        worst_min = max(worst_min, abs(float(np.trace(A))) / max(gnorm_coord(fr, A), 1e-14))
        ranks.add(rank_and_nullity(fr).rank)
    elapsed = time.perf_counter() - t0
    ok = worst_min < 1e-8 and ranks == {2} and elapsed < 30.0
    announce(
        capsys,
        2,
        ok,
        f"m4r5 |trace A|/||A|| {worst_min:.2e} < 1e-08, shape-operator ranks "
        f"{sorted(int(r) for r in ranks)} == [2] at 200 random points, {elapsed:.2f}s < 30s",
    )
    assert worst_min < 1e-8
    assert ranks == {2}
    assert elapsed < 30.0


def test_criterion_3_family_isometry_and_normals(capsys, catenoid_bundle, m4r5_bundle):
    worst = {}
    for bundle in (catenoid_bundle, m4r5_bundle):
        reports = run_suites(bundle, names=["family_metric", "family_normal"])
        for r in reports:
            assert r.tolerance == 1e-10
            worst[f"{bundle.seed.name}/{r.identity}"] = r.max_residual
    top = max(worst.values())
    ok = top < 1e-10
    announce(
        capsys,
        3,
        ok,
        f"shared metrics and normals across theta = k*pi/6 (k = 0..5): worst "
        f"deviation {top:.2e} < 1e-10 over {sorted(worst)}",
    )
    assert top < 1e-10


def test_criterion_4_bending_suite_with_controls(capsys, catenoid_bundle):
    names = [
        "bending_condition",
        "gauss_preservation",
        "bending_tpar",
        "bending_bat",
        "fundamental_wedge",
        "codazzi_b",
    ]
    assert len(catenoid_bundle.points) == 100
    reports = run_suites(catenoid_bundle, names=names)
    measured = [r for r in reports if not r.control]
    controls = [r for r in reports if r.control]
    ok_measured = all(
        r.passed and r.tolerance == DEFAULT_TOLERANCES[r.identity] for r in measured
    )
    ok_controls = bool(controls) and all(
        r.passed and r.max_residual > CONTROL_FLOOR for r in controls
    )
    worst_measured = max(r.max_residual for r in measured)
    least_control = min(r.max_residual for r in controls)
    ok = ok_measured and ok_controls
    announce(
        capsys,
        4,
        ok,
        f"conjugate-field bending identities on 100 points: worst residual "
        f"{worst_measured:.2e} under default tolerances "
        f"({len(measured)} identities), all {len(controls)} negative controls "
        f"above {CONTROL_FLOOR:g} (smallest {least_control:.2e})",
    )
    assert ok_measured
    assert ok_controls


def test_criterion_5_b_three_route_agreement(capsys, m4r5_bundle):
    tol = DEFAULT_TOLERANCES["b_three_route"]
    T = conjugate_field(m4r5_bundle.chart)
    rng = np.random.default_rng(DEFAULT_RNG_SEED + 1)
    pts = random_points(shrink_box(m4r5_bundle.chart.box, 0.9), 30, rng)
    worst = max(b_route_agreement(frame_and_jet(m4r5_bundle.chart, T, p)) for p in pts)
    ok = worst < tol
    announce(
        capsys,
        5,
        ok,
        f"three independent B computations agree to {worst:.2e} < {tol:g} "
        f"at 30 random m4r5 points",
    )
    assert worst < tol


def test_criterion_6_triviality_classification(capsys, enneper_chart):
    chart = enneper_chart
    pts = grid_points(shrink_box(chart.box, 0.8), [4, 4])
    rng = np.random.default_rng(DEFAULT_RNG_SEED + 6)
    conj = frame_and_jet(chart, conjugate_field(chart), pts)
    frame = conj.frame
    wrong_trivial = [
        k
        for k in range(20)
        if not classify_triviality(Variation(frame, make_trivial(frame.jet, rng))).trivial
    ]
    conj_res = classify_triviality(conj)
    dec1 = recover_bending_decomposition(conj, conj)
    # a unit-size rigid motion, drawn as make_trivial draws one
    raw = rng.standard_normal((3, 3))
    skew, offset = raw - raw.T, rng.standard_normal(3)
    skew, offset = skew / np.linalg.norm(skew), offset / np.linalg.norm(offset)
    combo = Variation(frame, mix_jets(2.0, conj.jet, 1.0, trivial_jet(frame.jet, skew, offset)))
    combo_res = classify_triviality(combo)
    dec2 = recover_bending_decomposition(combo, conj)
    ok = (
        not wrong_trivial
        and not conj_res.trivial
        and not combo_res.trivial
        and abs(dec1.coefficient - 1.0) < 1e-6
        and abs(dec2.coefficient - 2.0) < 1e-6
        and np.abs(dec2.skew - skew).max() < 1e-6
        and np.abs(dec2.offset - offset).max() < 1e-6
    )
    announce(
        capsys,
        6,
        ok,
        f"20/20 random rigid motions classify trivial; conjugate and "
        f"2*conjugate + D f + w classify nontrivial with recovered "
        f"coefficients {dec1.coefficient:.9f} and {dec2.coefficient:.9f} "
        f"(targets 1 and 2, tolerance 1e-06)",
    )
    assert not wrong_trivial
    assert not conj_res.trivial and not combo_res.trivial
    assert dec1.coefficient == pytest.approx(1.0, abs=1e-6)
    assert dec2.coefficient == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(dec2.skew, skew, atol=1e-6)
    np.testing.assert_allclose(dec2.offset, offset, atol=1e-6)


def test_criterion_7_rotation_coefficient(capsys, m4r5_bundle):
    T = conjugate_field(m4r5_bundle.chart)
    rng = np.random.default_rng(DEFAULT_RNG_SEED + 2)
    pts = random_points(shrink_box(m4r5_bundle.chart.box, 0.9), 30, rng)
    data = [rotation_coefficient(frame_and_jet(m4r5_bundle.chart, T, p)) for p in pts]
    cs = [r.coefficient for r in data]
    worst_dev = max(abs(c - 1.0) for c in cs)
    spread = max(cs) - min(cs)
    worst_fit = max(r.fit_residual for r in data)
    ok = worst_dev < 1e-6 and spread < 1e-6 and worst_fit < 1e-6
    announce(
        capsys,
        7,
        ok,
        f"tangential part rotates the curvature plane by c = 1: worst "
        f"|c - 1| {worst_dev:.2e}, spread {spread:.2e}, fit residual "
        f"{worst_fit:.2e}, all < 1e-06 at 30 random points",
    )
    assert worst_dev < 1e-6
    assert spread < 1e-6
    assert worst_fit < 1e-6


def test_criterion_8_gauss_round_trip_and_minimality(capsys, m4r5_chart):
    chart = m4r5_chart
    qpts = grid_points(shrink_box(chart.box, 0.6)[:2], [4, 4])
    rt = gauss_round_trip(chart, qpts)
    plane = float(rt.plane_distance.max())
    support = float(rt.support_mismatch.max())
    gauss = float(rt.gauss_mismatch.max())

    samples = grid_points(shrink_box(chart.box, 0.6), [3, 3, 2, 2])
    ext = extract_from_hypersurface(chart, samples)
    pairs = minimality_criterion(ext.data, qpts)
    trace = float(pairs.trace_residual.max())
    eigen = float(pairs.eigen_residual.max())
    ok = max(plane, support, gauss) < 1e-14 and trace < 1e-13 and eigen < 1e-14
    announce(
        capsys,
        8,
        ok,
        f"round trip through (g, gamma) lands on the source leaves: plane "
        f"{plane:.2e}, support {support:.2e}, Gauss {gauss:.2e}, all < 1e-14; "
        f"reconstructed minimality pair |trace A| {trace:.2e} < 1e-13, "
        f"|(Laplace + 2) gamma| {eigen:.2e} < 1e-14, from exact jets",
    )
    assert plane < 1e-14
    assert support < 1e-14
    assert gauss < 1e-14
    assert trace < 1e-13
    assert eigen < 1e-14


def test_criterion_9_cylinder_bending_nullity(capsys):
    a, b = 1.5, 0.8
    cylinder = ProductChart(profile=ellipse_chart(a, b), extra=1)
    fld = make_cylinder_bending(cylinder, a, b)
    pts = grid_points(shrink_box(cylinder.box, 0.9), [8, 4])
    worst_bend = max(bending_residual(frame_and_jet(cylinder, fld, p)) for p in pts)
    e_z = np.array([[0.0], [1.0]])  # the straight Euclidean factor
    worst_ann = 0.0
    for p in pts:
        fr = point_frame(cylinder.jet(p))
        assert rank_and_nullity(fr).nullity == 1
        B_hat = B_by_formula(frame_and_jet(cylinder, fld, p))
        # ||B e_z||_G / ||B||_G = ||B_hat C^T e_z|| / ||B_hat||_F: the rank-1
        # nullity has no rank-2 projector
        ann = np.linalg.norm(B_hat @ fr.chol.T @ e_z) / gnorm_op(B_hat)
        worst_ann = max(worst_ann, ann)
    ok = worst_bend < 1e-10 and worst_ann < 1e-10
    announce(
        capsys,
        9,
        ok,
        f"closed-form cylinder bending: residual {worst_bend:.2e} < 1e-10 and "
        f"B annihilates the straight factor to {worst_ann:.2e} < 1e-10 "
        f"at {len(pts)} points",
    )
    assert worst_bend < 1e-10
    assert worst_ann < 1e-10
