"""Built-in seeds and their expected-residual manifests.

Three seeds cover the classical regression targets:

* ``enneper``  - n=1, alpha0 = mu1 = b0 = 1 about 0.  The classical
  Enneper surface scaled by sqrt(2); induced metric (1/2) I at the origin.
* ``catenoid`` - n=1, phi0 = z, b0 = 1/z^2 expanded about 2.  A catenoid
  patch whose conjugate is a helicoid; both share the conformal factor
  lambda(z) = sqrt(2) (1+|z|^2) / (2 |z|^2).
* ``m4r5``     - n=2, alpha0 = mu1 = mu2 = 1, b0 = 0, b1 = 1 about 0.
  A rank-two minimal Kaehler hypersurface M^4 in R^5.

The expected-residual manifests are test data: regression bounds on what
a healthy build produces with default sampling, which the tests compare
against and ``--print-defaults`` prints.  They do not choose the suites a
verify runs; the chart's dimension does.
"""

from __future__ import annotations

import numpy as np

from .errors import SeedValidationError
from .series import DEFAULT_ORDER, TruncatedSeries
from .weierstrass import DomainSpec, WeierstrassSeed

BUILTIN_NAMES = ("enneper", "catenoid", "m4r5")


def _const(value: complex, base: complex) -> TruncatedSeries:
    return TruncatedSeries.constant(value, base, DEFAULT_ORDER)


def inverse_square_series(base: complex, order: int) -> TruncatedSeries:
    """Taylor coefficients of 1/z^2 about ``base`` (nonzero)."""
    base = complex(base)
    if base == 0:
        raise SeedValidationError("1/z^2 cannot be expanded about 0")
    k = np.arange(order + 1)
    coeffs = (-1.0) ** k * (k + 1) / base ** (k + 2)
    return TruncatedSeries(base, coeffs)


def builtin_seed(name: str) -> WeierstrassSeed:
    if name == "enneper":
        base = 0.0
        return WeierstrassSeed(
            n=1,
            alpha0=_const(1.0, base),
            mu=[_const(1.0, base)],
            b=[_const(1.0, base)],
            domain=DomainSpec(radius=1.2),
            name="enneper",
        )
    if name == "catenoid":
        base = 2.0
        return WeierstrassSeed(
            n=1,
            alpha0=_const(1.0, base),
            mu=[_const(1.0, base)],
            b=[inverse_square_series(base, DEFAULT_ORDER)],
            domain=DomainSpec(radius=0.9),
            # integration constant base makes phi_0(z) = z, the classical
            # Gauss-map datum of the catenoid about this basepoint
            phi_constants=[np.array([base], dtype=np.complex128)],
            name="catenoid",
        )
    if name == "m4r5":
        base = 0.0
        return WeierstrassSeed(
            n=2,
            alpha0=_const(1.0, base),
            mu=[_const(1.0, base), _const(1.0, base)],
            b=[_const(0.0, base), _const(1.0, base)],
            domain=DomainSpec(radius=0.8, w_halfwidth=(0.5,)),
            name="m4r5",
        )
    raise SeedValidationError(f"unknown builtin seed {name!r}; choose from {BUILTIN_NAMES}")


# Expected max residuals for the default verification run of each builtin.
# These are regression bounds, not tolerances: a pass must also stay below
# the per-identity tolerance, but a healthy build lands well under these
# (each bound sits two to three orders of magnitude above the residuals a
# reference run produces with default sampling).
_COMMON_EXPECTED = {
    "minimality": 1e-12,
    "rank": 1e-12,
    "family_metric": 1e-12,
    "family_normal": 1e-12,
    "family_shape": 1e-12,
    "anticommutation": 1e-12,
    "kaehler_parallel": 1e-12,
    "bending_condition": 1e-12,
    "gauss_preservation": 1e-12,
    "bending_tpar": 1e-12,
    "bending_bat": 1e-12,
    "fundamental_wedge": 1e-12,
    "codazzi_b": 1e-12,
    "b_three_route": 1e-12,
    "rotation": 1e-12,
}

EXPECTED_RESIDUALS = {
    "enneper": dict(_COMMON_EXPECTED),
    "catenoid": dict(_COMMON_EXPECTED),
    "m4r5": {
        **_COMMON_EXPECTED,
        "nullity_in_bending_kernel": 1e-12,
    },
}
