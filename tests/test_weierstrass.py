import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

import minkaehler.weierstrass as weierstrass
from minkaehler import kernels
from minkaehler.charts import random_points, shrink_box
from minkaehler.errors import DomainError, DomainWarning, SeedValidationError
from minkaehler.seeds import BUILTIN_NAMES, builtin_seed
from minkaehler.series import TruncatedSeries, series_eval, vdot
from minkaehler.suites import build_bundle
from minkaehler.weierstrass import (
    DomainSpec,
    SeriesChart,
    WeierstrassSeed,
    _domain_samples,
    _snap_phase,
    build_chain,
    chart_complex_structure,
    seed_from_json,
    seed_to_json,
)

from oracles import (
    perfbench_module,
    catenoid_closed_form,
    catenoid_metric,
    enneper_gauss_curvature,
    enneper_metric,
    metric_of,
    mix_jets,
)

SQRT2 = math.sqrt(2.0)


class TestChain:
    def test_enneper_chain_closed_form(self, enneper_seed):
        chain = build_chain(enneper_seed)
        # phi_0 = z
        phi0 = chain.phis[0][0]
        assert phi0.coeffs[1] == 1.0
        assert np.abs(np.delete(phi0.coeffs, 1)).max() == 0.0
        # delta = ((1 - z^2)/2, i (1 + z^2)/2, z) exactly
        d0, d1, d2 = chain.delta
        assert d0.coeffs[0] == 0.5 and d0.coeffs[2] == -0.5
        assert d1.coeffs[0] == 0.5j and d1.coeffs[2] == 0.5j
        assert d2.coeffs[1] == 1.0

    def test_m4r5_chain_closed_form(self, m4r5_seed):
        chain = build_chain(m4r5_seed)
        # q_1 = vdot(phi_1, phi_1) = -z^4 / 12, so the head components of
        # alpha_2 are (1 + z^4/12)/2 and i (1 - z^4/12)/2
        head0, head1 = chain.delta[:2]
        assert head0.coeffs[0] == 0.5
        assert head0.coeffs[4] == pytest.approx(1.0 / 24.0, abs=1e-16)
        assert head1.coeffs[0] == 0.5j
        assert head1.coeffs[4] == pytest.approx(-1j / 24.0, abs=1e-16)
        # tail = phi_1 = (z/2 - z^3/6, i(z/2 + z^3/6), z^2/2)
        t0, t1, t2 = chain.delta[2:]
        assert t0.coeffs[1] == 0.5 and t0.coeffs[3] == pytest.approx(-1.0 / 6.0)
        assert t1.coeffs[1] == 0.5j and t1.coeffs[3] == pytest.approx(1j / 6.0)
        assert t2.coeffs[2] == 0.5

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_recursion_output_is_isotropic(self, name, request):
        # every alpha_{r+1} satisfies vdot(a, a) = 0 by the algebra of the
        # recursion head (alpha_0 is scalar seed data and exempt)
        seed = request.getfixturevalue(f"{name}_seed")
        chain = build_chain(seed)
        for a in chain.alphas[1:]:
            q = vdot(a, a)
            assert np.abs(q.coeffs).max() < 1e-14

    def test_integral_of_derivative_matches_delta(self, m4r5_seed):
        # with b = (0, 1) the z-integral part of the representative is
        # exactly delta - delta(basepoint)
        chain = build_chain(m4r5_seed)
        assert len(chain.base) == 5
        for z in (0.1 + 0.2j, -0.3j, 0.25):
            want = series_eval(chain.delta, z) - series_eval(chain.delta, m4r5_seed.basepoint)
            got = series_eval(chain.base, z)
            np.testing.assert_allclose(got, want, atol=1e-15)


class TestRepresentative:
    def test_sqrt2_rep_splits_into_f_and_fbar(self, catenoid_seed):
        f = SeriesChart(catenoid_seed)
        fbar = SeriesChart(catenoid_seed, math.pi / 2)
        for p in ([0.1, 0.2], [-0.3, 0.05], [0.0, 0.0]):
            z = catenoid_seed.basepoint + p[0] + 1j * p[1]
            F = series_eval(catenoid_seed.chain.base, z)  # n = 1: F has no w part
            got = f.value(p) + 1j * fbar.value(p)
            np.testing.assert_allclose(got, SQRT2 * F, atol=1e-14)


class TestClassicalSurfaces:
    def test_enneper_metric_matches_oracle(self, enneper_chart):
        for p in ([0.0, 0.0], [0.3, -0.2], [-0.45, 0.1]):
            z = complex(p[0], p[1])
            np.testing.assert_allclose(
                metric_of(enneper_chart, p), enneper_metric(z), rtol=1e-12, atol=1e-14
            )

    def test_enneper_curvature_matches_oracle(self, enneper_chart):
        from minkaehler.geometry import point_frame

        for p in ([0.0, 0.0], [0.25, 0.15]):
            fr = point_frame(enneper_chart.jet(p))
            K = float(np.linalg.det(fr.shape_hat))  # det A_hat = det A
            assert K == pytest.approx(enneper_gauss_curvature(complex(*p)), rel=1e-10)

    def test_catenoid_matches_closed_form(self, catenoid_chart):
        for p in ([0.0, 0.0], [0.2, 0.1], [-0.25, -0.3], [0.0, 0.4]):
            z = catenoid_chart.seed.basepoint + p[0] + 1j * p[1]
            np.testing.assert_allclose(
                catenoid_chart.value(p), catenoid_closed_form(z), atol=1e-12
            )

    def test_helicoid_shares_catenoid_metric(self, catenoid_fbar):
        for p in ([0.0, 0.0], [0.15, -0.2], [-0.3, 0.25]):
            z = catenoid_fbar.seed.basepoint + p[0] + 1j * p[1]
            np.testing.assert_allclose(
                metric_of(catenoid_fbar, p), catenoid_metric(z), rtol=1e-12, atol=1e-14
            )

    def test_m4r5_w_dependence_is_affine(self, m4r5_chart):
        # second partials in the fiber directions vanish identically
        pts = np.array([[0.1, 0.2, 0.1, -0.2], [0.0, 0.0, 0.3, 0.3]])
        _, _, d2 = m4r5_chart.jet_batch(pts)
        assert np.abs(d2[:, 2:, 2:, :]).max() == 0.0


class TestFamily:
    def test_quarter_turn_snaps_exactly(self, catenoid_seed):
        f = SeriesChart(catenoid_seed)
        fbar = SeriesChart(catenoid_seed, math.pi / 2)
        th0 = SeriesChart(catenoid_seed, 0.0)
        th90 = SeriesChart(catenoid_seed, math.pi / 2)
        p = np.array([0.21, -0.17])
        assert np.array_equal(th0.value(p), f.value(p))
        assert np.array_equal(th90.value(p), fbar.value(p))

    def test_family_is_the_stated_mixture(self, m4r5_seed, n3_chart):
        f = SeriesChart(m4r5_seed)
        fbar = SeriesChart(m4r5_seed, math.pi / 2)
        theta = 0.7
        fam = SeriesChart(m4r5_seed, theta)
        p = np.array([0.1, -0.05, 0.2, 0.1])
        want = math.cos(theta) * f.value(p) + math.sin(theta) * fbar.value(p)
        np.testing.assert_allclose(fam.value(p), want, atol=1e-14)
        # the members mixed from the grid jets of f and fbar, on which the
        # family rows rest, match each member's own chart on the grid
        for seed in (m4r5_seed, n3_chart.seed):
            bundle = build_bundle(seed)
            for theta in (k * math.pi / 6 for k in range(1, 6)):
                got = mix_jets(math.cos(theta), bundle.frame.jet, math.sin(theta), bundle.conjugate.jet)
                want = SeriesChart(seed, theta).jet(bundle.points)
                for part in ("value", "d1", "d2"):
                    ref = getattr(want, part)
                    scale = float(np.abs(ref).max())
                    np.testing.assert_allclose(getattr(got, part), ref, rtol=0.0, atol=1e-14 * scale)

    def test_family_members_are_isometric(self, catenoid_seed):
        base = SeriesChart(catenoid_seed)
        for theta in (0.3, 1.1, 2.5):
            member = SeriesChart(catenoid_seed, theta)
            for p in ([0.0, 0.0], [0.2, -0.15]):
                np.testing.assert_allclose(
                    metric_of(member, p), metric_of(base, p), rtol=1e-12, atol=1e-14
                )

    def test_every_real_theta_is_a_member(self, enneper_seed):
        f, fbar = SeriesChart(enneper_seed), SeriesChart(enneper_seed, math.pi / 2)
        p = np.array([0.21, -0.17])
        # pi and 3 pi / 2 snap exactly, to -f and -fbar
        assert np.array_equal(SeriesChart(enneper_seed, math.pi).value(p), -f.value(p))
        assert np.array_equal(SeriesChart(enneper_seed, 1.5 * math.pi).value(p), -fbar.value(p))
        # angles past a turn, negative or huge, are not reduced
        for theta in (-0.1, 7.0, 1e20):
            want = math.cos(theta) * f.value(p) + math.sin(theta) * fbar.value(p)
            np.testing.assert_allclose(SeriesChart(enneper_seed, theta).value(p), want, atol=1e-14)
        assert _snap_phase(1e20) == math.cos(1e20) - 1j * math.sin(1e20)
        with pytest.raises(ValueError, match="finite angle"):
            SeriesChart(enneper_seed, math.inf)


def _stack_test_seed(name):
    """A built-in, or a seed the benchmark's verify-random workload draws."""
    if name in BUILTIN_NAMES:
        return builtin_seed(name)
    return seed_from_json({s["name"]: s for s in perfbench_module("workloads").random_seeds()}[name])


class TestPhaseStack:
    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5", "random-n1", "random-n2", "random-n3"])
    def test_each_member_is_its_own_chart_to_the_bit(self, name):
        seed = _stack_test_seed(name)
        thetas = (0.0, math.pi / 2, math.pi, 1.5 * math.pi, 0.7)
        stack = SeriesChart(seed, thetas)
        assert stack.theta == thetas
        pts = random_points(shrink_box(stack.box, 0.9), 5, np.random.default_rng(7))
        for order in range(5):
            parts = stack.jet_batch(pts, order)
            assert len(parts) == order + 1
            for i, theta in enumerate(thetas):
                single = SeriesChart(seed, theta).jet_batch(pts, order)
                for got, want in zip(parts, single):
                    assert got.shape == (len(thetas),) + want.shape
                    np.testing.assert_array_equal(got[i], want)
        jets = stack.member_jets(pts)
        for jet, theta in zip(jets, thetas):
            single = SeriesChart(seed, theta).jet(pts)
            for part in ("value", "d1", "d2"):
                assert getattr(jet, part).flags.c_contiguous
                np.testing.assert_array_equal(getattr(jet, part), getattr(single, part))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_jet_of_a_stack_keeps_the_member_axis(self, m4r5_seed, count):
        thetas = (0.0, math.pi / 2)
        stack = SeriesChart(m4r5_seed, thetas)
        pts = random_points(shrink_box(stack.box, 0.9), 2 * count, np.random.default_rng(3))
        pts = pts.reshape(2, count, 4)
        jet = stack.jet(pts)
        assert jet.coords.shape == (2, 2, count, 4)
        np.testing.assert_array_equal(stack.value(pts), jet.value)
        d3 = stack.jet_batch(pts.reshape(-1, 4), 3)[3]
        for i, theta in enumerate(thetas):
            single = SeriesChart(m4r5_seed, theta).jet(pts)
            np.testing.assert_array_equal(jet.coords[i], pts)
            for part in ("value", "d1", "d2"):
                np.testing.assert_array_equal(getattr(jet, part)[i], getattr(single, part))
            alone = SeriesChart(m4r5_seed, theta).jet_batch(pts.reshape(-1, 4), 3)[3]
            np.testing.assert_array_equal(d3[i], alone)

    def test_charts_of_one_seed_share_their_rows(self, m4r5_seed, monkeypatch):
        pts = np.array([[0.1, -0.05, 0.2, 0.1]])
        SeriesChart(m4r5_seed).jet_batch(pts, order=3)
        rows = m4r5_seed.jet_rows(3)
        # a second chart of the seed builds no rows of its own
        monkeypatch.setattr(weierstrass, "_jet_table", None)
        SeriesChart(m4r5_seed, (0.3, 1.2)).jet_batch(pts, order=3)
        assert m4r5_seed.jet_rows(3) is rows
        assert m4r5_seed.jet_rows(3)[0] is rows[0]

    @pytest.mark.parametrize("theta", [(), [[0.0, 1.0]], (0.0, math.nan), math.inf, [1.0, -math.inf]])
    def test_empty_2d_or_non_finite_theta_rejected(self, enneper_seed, theta):
        with pytest.raises(ValueError, match="finite angle"):
            SeriesChart(enneper_seed, theta)


class TestComplexStructure:
    def test_squares_to_minus_identity(self):
        for d in (2, 4, 6):
            J = chart_complex_structure(d)
            np.testing.assert_array_equal(J @ J, -np.eye(d))

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            chart_complex_structure(3)

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_conjugate_differential_is_f_star_J(self, name, request):
        f = request.getfixturevalue(f"{name}_chart")
        fbar = request.getfixturevalue(f"{name}_fbar")
        J = chart_complex_structure(f.d)
        rng = np.random.default_rng(7)
        for _ in range(4):
            p = rng.uniform(-0.2, 0.2, size=f.d)
            df = f.jet(p).d1      # rows are coordinate partials
            dfb = fbar.jet(p).d1
            # column-of-images form: fbar_* = f_* J  <=>  dfb^T = df^T J
            np.testing.assert_allclose(dfb.T, df.T @ J, atol=1e-13)


class TestJets:
    def test_jets_match_finite_differences(self, m4r5_chart):
        p = np.array([0.12, -0.08, 0.15, 0.05])
        jet = m4r5_chart.jet(p)
        h = 1e-5
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd1 = (m4r5_chart.value(p + e) - m4r5_chart.value(p - e)) / (2 * h)
            np.testing.assert_allclose(jet.d1[i], fd1, atol=1e-9)
            for j in range(4):
                ej = np.zeros(4)
                ej[j] = h
                fd2 = (
                    m4r5_chart.value(p + e + ej)
                    - m4r5_chart.value(p + e - ej)
                    - m4r5_chart.value(p - e + ej)
                    + m4r5_chart.value(p - e - ej)
                ) / (4 * h * h)
                np.testing.assert_allclose(jet.d2[i, j], fd2, atol=1e-6)

    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5", "n3"])
    def test_third_order_jets(self, name, request):
        chart = request.getfixturevalue(f"{name}_chart")
        rng = np.random.default_rng(11)
        box = chart.box * 0.8
        pts = rng.uniform(box[:, 0], box[:, 1], size=(3, chart.d))
        jets = chart.jet_batch(pts, order=3)
        # orders 0-2 keep their bits, in a large batch too
        for batch in (pts, rng.uniform(box[:, 0], box[:, 1], size=(1001, chart.d))):
            for lower, exact in zip(chart.jet_batch(batch, order=3)[:3], chart.jet_batch(batch)):
                assert lower.tobytes() == exact.tobytes()
        d3 = jets[3]
        for axes in ((0, 2, 1, 3, 4), (0, 1, 3, 2, 4), (0, 3, 2, 1, 4)):
            assert np.array_equal(d3, d3.transpose(axes))
        h = np.finfo(np.float64).eps ** (1.0 / 3.0)
        scale = max(1.0, float(np.abs(d3).max()))
        for k, p in enumerate(pts):
            for l in range(chart.d):
                e = np.zeros(chart.d)
                e[l] = h
                fd = (chart.jet_batch(p + e)[2] - chart.jet_batch(p - e)[2])[0] / (2 * h)
                np.testing.assert_allclose(d3[k, :, :, l], fd, rtol=0.0, atol=1e-9 * scale)

    @pytest.mark.parametrize("name", ["enneper", "m4r5", "n3"])
    def test_fourth_order_jets(self, name, request):
        chart = request.getfixturevalue(f"{name}_chart")
        rng = np.random.default_rng(12)
        box = chart.box * 0.8
        pts = rng.uniform(box[:, 0], box[:, 1], size=(3, chart.d))
        jets = chart.jet_batch(pts, order=4)
        # orders 0-3 keep the bits of the order-3 stack
        for lower, exact in zip(jets[:4], chart.jet_batch(pts, order=3)):
            assert lower.tobytes() == exact.tobytes()
        d4 = jets[4]
        for axes in ((0, 2, 1, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 4, 3, 5)):
            assert np.array_equal(d4, d4.transpose(axes))
        h = np.finfo(np.float64).eps ** (1.0 / 3.0)
        scale = max(1.0, float(np.abs(d4).max()))
        for k, p in enumerate(pts):
            for l in range(chart.d):
                e = np.zeros(chart.d)
                e[l] = h
                fd = (chart.jet_batch(p + e, order=3)[3] - chart.jet_batch(p - e, order=3)[3])[0] / (2 * h)
                np.testing.assert_allclose(d4[k, :, :, :, l], fd, rtol=0.0, atol=1e-9 * scale)

    def test_jet_order_is_checked(self, enneper_chart):
        with pytest.raises(DomainError):
            enneper_chart.jet_batch(np.zeros((1, 2)), order=-1)
        # orders below 2 are slices of the 2-jet
        pts = np.array([[0.1, -0.2]])
        for k in (0, 1):
            low = enneper_chart.jet_batch(pts, order=k)
            assert len(low) == k + 1
            for a, b in zip(low, enneper_chart.jet_batch(pts)):
                assert a.tobytes() == b.tobytes()

    def test_batch_matches_single(self, catenoid_chart):
        pts = np.array([[0.1, 0.2], [-0.15, 0.0], [0.0, -0.3]])
        value, d1, d2 = catenoid_chart.jet_batch(pts)
        for k, p in enumerate(pts):
            jet = catenoid_chart.jet(p)
            np.testing.assert_array_equal(jet.value, value[k])
            np.testing.assert_array_equal(jet.d1, d1[k])
            np.testing.assert_array_equal(jet.d2, d2[k])

    def test_jet_outside_domain_warns(self, catenoid_chart):
        with pytest.warns(DomainWarning):
            catenoid_chart.jet([5.0, 0.0])

    def test_jet_inside_domain_is_silent(self, catenoid_chart):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            catenoid_chart.jet([0.1, 0.1])

    def test_wrong_coordinate_count_raises(self, catenoid_chart):
        with pytest.raises(DomainError):
            catenoid_chart.jet_batch(np.zeros((1, 4)))

    def test_default_box_sits_inside_domain(self, m4r5_chart):
        box = m4r5_chart.box
        corners = np.array(
            [[box[k, bit >> k & 1] for k in range(len(box))] for bit in range(2 ** len(box))]
        )
        assert all(m4r5_chart.domain_contains(c) for c in corners)


class TestConstants:
    def test_rep_constants_translate_the_chart(self, catenoid_seed):
        shift = np.array([0.3 - 0.1j, 0.2j, -0.5 + 0.4j])
        shifted = WeierstrassSeed(
            n=1,
            alpha0=catenoid_seed.alpha0,
            mu=list(catenoid_seed.mu),
            b=list(catenoid_seed.b),
            domain=catenoid_seed.domain,
            trunc_order=catenoid_seed.trunc_order,
            phi_constants=catenoid_seed.phi_constants,
            rep_constants=[shift],
        )
        f0 = SeriesChart(catenoid_seed)
        f1 = SeriesChart(shifted)
        p = np.array([0.2, -0.1])
        np.testing.assert_allclose(
            f1.value(p) - f0.value(p), SQRT2 * shift.real, atol=1e-14
        )

    def test_phi_constants_change_the_chain(self, enneper_seed):
        seed = WeierstrassSeed(
            n=1,
            alpha0=enneper_seed.alpha0,
            mu=list(enneper_seed.mu),
            b=list(enneper_seed.b),
            domain=enneper_seed.domain,
            trunc_order=enneper_seed.trunc_order,
            phi_constants=[np.array([1.0 + 0j])],
        )
        chain = build_chain(seed)
        assert chain.phis[0][0].coeffs[0] == 1.0
        # the shifted chain is still isotropic
        q = vdot(chain.delta, chain.delta)
        assert np.abs(q.coeffs).max() < 1e-14

    def test_constant_shape_validation(self, m4r5_seed):
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(
                n=2,
                alpha0=m4r5_seed.alpha0,
                mu=list(m4r5_seed.mu),
                b=list(m4r5_seed.b),
                domain=m4r5_seed.domain,
                phi_constants=[np.zeros(1), np.zeros(2)],  # step 1 needs length 3
            )
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(
                n=2,
                alpha0=m4r5_seed.alpha0,
                mu=list(m4r5_seed.mu),
                b=list(m4r5_seed.b),
                domain=m4r5_seed.domain,
                rep_constants=[np.zeros(5), np.zeros(4)],  # ambient is 5
            )


class TestValidation:
    def _seed(self, alpha0=None, mu=None, b=None, radius=0.5, order=8):
        one = TruncatedSeries.constant(1.0, 0.0, order)
        return WeierstrassSeed(
            n=1,
            alpha0=one if alpha0 is None else alpha0,
            mu=[one if mu is None else mu],
            b=[one if b is None else b],
            domain=DomainSpec(radius=radius),
            trunc_order=order,
        )

    def test_vanishing_b_rejected(self):
        z = TruncatedSeries.variable(0.0, 8)
        with pytest.raises(SeedValidationError, match=r"b\[n-1\] must be nonzero"):
            self._seed(b=z)

    def test_vanishing_alpha0_rejected(self):
        z = TruncatedSeries.variable(0.0, 8)
        with pytest.raises(SeedValidationError, match="alpha0 must be nonzero"):
            self._seed(alpha0=z)

    def test_vanishing_mu_rejected(self):
        z = TruncatedSeries.variable(0.0, 8)
        with pytest.raises(SeedValidationError, match=r"mu\[1\] must be nonzero"):
            self._seed(mu=z)

    def test_checked_series_fail_in_order(self):
        # alpha0, then b[n-1], then each mu_r: the first failing row names itself
        z = TruncatedSeries.variable(0.0, 8)
        with pytest.raises(SeedValidationError, match="alpha0 must be nonzero"):
            self._seed(alpha0=z, mu=z, b=z)
        with pytest.raises(SeedValidationError, match=r"b\[n-1\] must be nonzero"):
            self._seed(mu=z, b=z)

    def test_checked_series_take_one_horner_call(self, monkeypatch):
        calls = []
        horner = kernels.horner_many

        def counted(coeffs, dz):
            calls.append(np.shape(coeffs))
            return horner(coeffs, dz)

        monkeypatch.setattr(kernels, "horner_many", counted)
        seed = builtin_seed("m4r5")
        assert calls == [(2 + seed.n, seed.trunc_order + 1)]

    def test_zero_on_an_off_center_sample_rejected(self):
        # mu vanishes exactly at one sample of the outer ring, not at the basepoint
        sample = _domain_samples(self._seed())[-5]
        coeffs = np.zeros(9, dtype=np.complex128)
        coeffs[:2] = -sample, 1.0
        msg = "seed invariant violated: mu[1] must be nonzero on the domain (min modulus 0 at sampled points)"
        with pytest.raises(SeedValidationError, match=re.escape(msg)):
            self._seed(mu=TruncatedSeries(0.0, coeffs))

    def test_nan_coefficient_rejected(self):
        # a NaN modulus is not finite, and fails as such
        coeffs = np.ones(9, dtype=np.complex128)
        coeffs[3] = np.nan
        with pytest.raises(SeedValidationError, match=re.escape("mu[1] is not finite on the domain")):
            self._seed(mu=TruncatedSeries(0.0, coeffs))

    def test_infinite_basepoint_rejected(self):
        one = TruncatedSeries.constant(1.0, complex(np.inf, 0.0), 8)
        with pytest.raises(SeedValidationError, match="alpha0 is not finite on the domain"):
            WeierstrassSeed(n=1, alpha0=one, mu=[one], b=[one], domain=DomainSpec(0.5), trunc_order=8)

    def test_overflowing_series_is_not_finite_not_zero(self):
        # 1e308 (1 + z) overflows on the disc; numpy's overflow warnings stay quiet
        big = TruncatedSeries(0.0, [1e308, 1e308])
        msg = "seed invariant violated: alpha0 is not finite on the domain"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeedValidationError, match=re.escape(msg)):
                self._seed(alpha0=big, radius=3.0)

    @pytest.mark.parametrize("radius", [2.0, 2.5, 3.0, 1e300])
    def test_domain_past_the_series_convergence_rejected(self, catenoid_seed, radius):
        # b = 1/z^2 about 2 converges for |z - 2| < 2; at r >= 2 its terms
        # (k + 1) (r / 2)^k / 4 grow to the last one kept, with no overflow
        # warning even at r = 1e300
        msg = f"seed series b[0] does not converge on the domain: its term of order 32 is its largest at radius {radius:g}"
        with pytest.raises(SeedValidationError, match=re.escape(msg)):
            dataclasses.replace(catenoid_seed, domain=DomainSpec(radius=radius))

    def test_domain_inside_the_series_convergence_accepted(self, catenoid_seed):
        # at r = 1.9 the terms peak near k = 18, before the last one kept
        dataclasses.replace(catenoid_seed, domain=DomainSpec(radius=1.9))

    def test_builtin_seeds_validate(self):
        for name in BUILTIN_NAMES:
            builtin_seed(name)

    def test_plain_names_are_accepted(self, enneper_seed):
        for name in BUILTIN_NAMES + ("custom", "random-n1", "my-surface", "inline-n3"):
            assert dataclasses.replace(enneper_seed, name=name).name == name

    def test_negative_trunc_order_rejected(self):
        one = TruncatedSeries.constant(1.0, 0.0, 8)
        with pytest.raises(SeedValidationError, match=re.escape("seed trunc_order must be >= 0, got -1")):
            WeierstrassSeed(n=1, alpha0=one, mu=[one], b=[one], domain=DomainSpec(0.5), trunc_order=-1)

    def test_seed_is_frozen_and_expands_once(self, m4r5_seed):
        with pytest.raises(dataclasses.FrozenInstanceError):
            m4r5_seed.trunc_order = 4
        assert m4r5_seed.chain is m4r5_seed.chain
        assert SeriesChart(m4r5_seed).seed.chain is SeriesChart(m4r5_seed, math.pi / 2).seed.chain

    def test_structural_errors(self, enneper_seed):
        one = enneper_seed.alpha0
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(n=0, alpha0=one, mu=[], b=[], domain=DomainSpec(1.0))
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(n=2, alpha0=one, mu=[one], b=[one, one], domain=DomainSpec(1.0, (0.5,)))
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(n=2, alpha0=one, mu=[one, one], b=[one, one], domain=DomainSpec(1.0))
        with pytest.raises(SeedValidationError):
            DomainSpec(radius=-1.0)
        other = TruncatedSeries.constant(1.0, 1.0, enneper_seed.trunc_order)
        with pytest.raises(SeedValidationError):
            WeierstrassSeed(n=1, alpha0=one, mu=[other], b=[one], domain=DomainSpec(1.0))


class TestSerialization:
    @pytest.mark.parametrize("name", ["enneper", "catenoid", "m4r5"])
    def test_round_trip_preserves_charts(self, name, request):
        seed = request.getfixturevalue(f"{name}_seed")
        data = json.loads(json.dumps(seed_to_json(seed)))
        back = seed_from_json(data)
        assert back.n == seed.n
        assert back.trunc_order == seed.trunc_order
        np.testing.assert_array_equal(back.alpha0.coeffs, seed.alpha0.coeffs)
        f0, f1 = SeriesChart(seed), SeriesChart(back)
        p = np.zeros(f0.d) + 0.05
        np.testing.assert_array_equal(f0.value(p), f1.value(p))

    def test_round_trip_with_constants(self, catenoid_seed):
        seed = WeierstrassSeed(
            n=1,
            alpha0=catenoid_seed.alpha0,
            mu=list(catenoid_seed.mu),
            b=list(catenoid_seed.b),
            domain=catenoid_seed.domain,
            phi_constants=[np.array([0.5j])],
            rep_constants=[np.array([1.0, 2.0j, 0.0])],
        )
        back = seed_from_json(json.loads(json.dumps(seed_to_json(seed))))
        np.testing.assert_array_equal(back.phi_constants[0], seed.phi_constants[0])
        np.testing.assert_array_equal(back.rep_constants[0], seed.rep_constants[0])

    def test_missing_key_raises(self):
        with pytest.raises(SeedValidationError, match="missing required key"):
            seed_from_json({"n": 1})

    def test_bad_complex_pair_raises(self):
        with pytest.raises(SeedValidationError):
            seed_from_json(
                {
                    "n": 1,
                    "alpha0": [[1.0, 0.0, 0.0]],
                    "mu": [[[1.0, 0.0]]],
                    "b": [[[1.0, 0.0]]],
                    "domain": {"radius": 1.0},
                }
            )
