"""One batch axis: a point stack evaluates like each of its points alone.

Every frame quantity and every residual the suites use is written once over
leading point axes, and so is every Gauss-parametrization quantity.  Here
each is evaluated on a (2, 2, d) stack and on its four points one at a
time; the two must agree to 1e-14 relative.
"""

import numpy as np
import pytest

from minkaehler.bending import (
    B_by_formula,
    B_by_variation,
    B_with_codazzi_derivative,
    Variation,
    b_route_agreement,
    bat_residual,
    bending_residual,
    codazzi_residual,
    conjugate_field,
    fundamental_equation_residual,
    gauss_tangency_residual,
    make_trivial,
    normal_variation_residual,
    nullity_annihilation_residual,
    parallel_tangential_residual,
    rotation_coefficient,
)
from minkaehler.charts import random_points, shrink_box
from minkaehler.gausspar import (
    clifford_torus_surface,
    gauss_map_identity_residual,
    gauss_param,
    gauss_round_trip,
    linear_support,
    minimality_criterion,
    rebuild,
)
from minkaehler.geometry import (
    anticommutation_residual,
    christoffel,
    minimality_residual,
    parallel_J_residual,
    point_frame,
    rank_and_nullity,
    rank_two_residual,
)
from minkaehler.weierstrass import chart_complex_structure

from oracles import frame_and_jet


def _frame(chart, p):
    return point_frame(chart.jet(p))


def _nullity(chart, fld, p):
    return nullity_annihilation_residual(frame_and_jet(chart, fld, p))


def _trivial(chart, p):
    # one rigid motion: each call draws the same D and w
    jet = chart.jet(p)
    return Variation(point_frame(jet), make_trivial(jet, np.random.default_rng(2)))


def _codazzi_b(chart, fld, p):
    v = frame_and_jet(chart, fld, p)
    return codazzi_residual(v.frame, *B_with_codazzi_derivative(v))


def _codazzi_control(chart, fld, p):
    frame = _frame(chart, p)
    S1 = np.arange(chart.d * chart.d, dtype=float).reshape(chart.d, chart.d)
    dS = np.zeros((chart.d,) * 3)
    dS[0] = S1 + S1.T
    return codazzi_residual(frame, frame.second_form + p[..., 0, None, None] * dS[0], dS)


QUANTITIES = {
    "metric": lambda c, T, p: _frame(c, p).metric,
    "normal": lambda c, T, p: _frame(c, p).normal,
    "second_form": lambda c, T, p: _frame(c, p).second_form,
    "eigenvalues": lambda c, T, p: np.linalg.eigvalsh(_frame(c, p).shape_hat),
    "tangent_rows": lambda c, T, p: _frame(c, p).tangent_rows,
    "shape_hat": lambda c, T, p: _frame(c, p).shape_hat,
    "christoffel_hat": lambda c, T, p: _frame(c, p).christoffel_hat,
    "christoffel": lambda c, T, p: christoffel(c.jet(p), _frame(c, p).tangent_rows),
    "rank": lambda c, T, p: rank_and_nullity(_frame(c, p)).rank,
    "rank_two": lambda c, T, p: rank_two_residual(_frame(c, p)),
    "minimality": lambda c, T, p: minimality_residual(_frame(c, p)),
    "anticommutation": lambda c, T, p: anticommutation_residual(
        _frame(c, p), chart_complex_structure(c.d)
    ),
    "kaehler_parallel": lambda c, T, p: parallel_J_residual(
        _frame(c, p), chart_complex_structure(c.d)
    ),
    "bending_condition": lambda c, T, p: bending_residual(frame_and_jet(c, T, p)),
    "bending_control": lambda c, T, p: bending_residual(frame_and_jet(c, c, p)),
    "gauss_tangency": lambda c, T, p: gauss_tangency_residual(frame_and_jet(c, T, p)),
    "normal_variation": lambda c, T, p: normal_variation_residual(frame_and_jet(c, T, p)),
    "bending_tpar": lambda c, T, p: parallel_tangential_residual(frame_and_jet(c, T, p)),
    "bending_bat": lambda c, T, p: bat_residual(frame_and_jet(c, T, p)),
    "bending_bat_trivial": lambda c, T, p: bat_residual(_trivial(c, p)),
    "fundamental_wedge": lambda c, T, p: fundamental_equation_residual(frame_and_jet(c, T, p)),
    "fundamental_control": lambda c, T, p: fundamental_equation_residual(frame_and_jet(c, c, p)),
    "codazzi_b": _codazzi_b,
    "codazzi_control": _codazzi_control,
    "b_three_route": lambda c, T, p: b_route_agreement(frame_and_jet(c, T, p)),
    "B_by_formula": lambda c, T, p: B_by_formula(frame_and_jet(c, T, p)),
    "B_by_variation": lambda c, T, p: B_by_variation(frame_and_jet(c, T, p)),
    "rotation": lambda c, T, p: rotation_coefficient(frame_and_jet(c, T, p)).coefficient,
    "rotation_fit": lambda c, T, p: rotation_coefficient(frame_and_jet(c, T, p)).fit_residual,
    "nullity_in_bending_kernel": lambda c, T, p: _nullity(c, T, p),
}


@pytest.mark.parametrize("name", ["m4r5", "n3"])
@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_stack_matches_points_alone(name, quantity, request):
    chart = request.getfixturevalue(f"{name}_chart")
    fld = conjugate_field(chart)
    rng = np.random.default_rng(20260816)
    pts = random_points(shrink_box(chart.box, 0.8), 4, rng).reshape(2, 2, chart.d)
    fn = QUANTITIES[quantity]
    stacked = fn(chart, fld, pts)
    alone = np.array([[fn(chart, fld, p) for p in row] for row in pts])
    assert stacked.shape == alone.shape
    scale = max(1.0, float(np.abs(alone).max()))
    np.testing.assert_allclose(stacked, alone, rtol=0.0, atol=1e-14 * scale)


def _gauss_data(source, request):
    """(Gauss datum, quotient box) rebuilt from m4r5 or in closed form."""
    if source == "m4r5":
        chart = request.getfixturevalue("m4r5_chart")
        return rebuild(chart, 2), chart.box[:2]
    surface = clifford_torus_surface()
    return linear_support(surface, [0.7, -0.3, 0.4, 0.2]), surface.box


def _lifted(q, w=0.1):
    return np.concatenate([q, np.full(q.shape[:-1] + (1,), w)], axis=-1)


GAUSSPAR = {
    "g_jet_d2": lambda data, q: data.expand(q, 2)[0].derivatives(2),
    "frame": lambda data, q: data.expand(q, 0)[2].value,
    "support": lambda data, q: data.expand(q, 0)[1].value,
    "psi_d1": lambda data, q: gauss_param(data).jet(_lifted(q, 0.0)).d1,
    "psi_d2": lambda data, q: gauss_param(data).jet(_lifted(q, 0.0)).d2,
    "trace": lambda data, q: minimality_criterion(data, q).trace_residual,
    "eigen": lambda data, q: minimality_criterion(data, q).eigen_residual,
}


@pytest.mark.parametrize("source", ["m4r5", "clifford"])
@pytest.mark.parametrize("quantity", sorted(GAUSSPAR))
def test_gausspar_stack_matches_points_alone(source, quantity, request):
    data, box = _gauss_data(source, request)
    rng = np.random.default_rng(20260816)
    q = random_points(shrink_box(box, 0.6), 4, rng).reshape(2, 2, 2)
    fn = GAUSSPAR[quantity]
    stacked = fn(data, q)
    alone = np.array([[fn(data, p) for p in row] for row in q])
    assert stacked.shape == alone.shape
    scale = max(1.0, float(np.abs(alone).max()))
    np.testing.assert_allclose(stacked, alone, rtol=0.0, atol=1e-14 * scale)


def test_gauss_identity_and_round_trip_stack_matches_points_alone(m4r5_chart):
    rng = np.random.default_rng(20260816)
    q = random_points(shrink_box(m4r5_chart.box[:2], 0.6), 4, rng).reshape(2, 2, 2)
    data = linear_support(clifford_torus_surface(), [0.7, -0.3, 0.4, 0.2])
    psi = gauss_param(data)
    qc = random_points(shrink_box(data.box, 0.6), 4, rng).reshape(2, 2, 2)
    checks = [
        lambda p: gauss_map_identity_residual(psi, data, _lifted(p)),
        lambda p: gauss_round_trip(m4r5_chart, p).plane_distance,
        lambda p: gauss_round_trip(m4r5_chart, p).support_mismatch,
        lambda p: gauss_round_trip(m4r5_chart, p).gauss_mismatch,
    ]
    for fn, pts in zip(checks, (qc, q, q, q)):
        stacked = fn(pts)
        alone = np.array([[fn(p) for p in row] for row in pts])
        assert stacked.shape == alone.shape == (2, 2)
        np.testing.assert_allclose(stacked, alone, rtol=0.0, atol=1e-14)
