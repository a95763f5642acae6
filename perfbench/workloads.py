"""The benchmark's workloads: each is one round of CLI operations.

A round is the fixed list of operations a run repeats; a run measures whole
rounds, so every run attempts the same operations in the same proportion.

``verify-m4r5``    the default ``verify`` of the built-in ``m4r5``.
``verify-random``  ``verify`` of three inline seeds with n = 1, 2, 3.  Each
                   fails today on ``codazzi_b`` alone (the O(h^2) truncation
                   of its eps^(1/5) stencil), which the checks tolerate and
                   the run counts as a failed operation.  The seeds are drawn
                   from a fixed generator seed, not from ``--seed``, so that
                   the share of failed operations is the same in every run.
``export-dense``   ``export`` of a 64 x 64 ``ftheta`` slice of ``m4r5`` whose
                   phase and pinned ``w`` come from ``--seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NAMES = ("verify-m4r5", "verify-random", "export-dense")

# the 16 registered suites, in the order verify runs them
SUITES = (
    "minimality",
    "rank",
    "family_metric",
    "family_normal",
    "family_shape",
    "anticommutation",
    "kaehler_parallel",
    "bending_condition",
    "gauss_preservation",
    "bending_tpar",
    "bending_bat",
    "fundamental_wedge",
    "codazzi_b",
    "b_three_route",
    "rotation",
    "nullity_in_bending_kernel",
)

RANDOM_DRAW = 20261018  # generator seed of the verify-random seed list
RANDOM_RADIUS = 0.6  # 0.6 + 0.6**2 < 1: higher terms cannot cancel c_0
RANDOM_W_HALFWIDTH = 0.5
M4R5_RADIUS = 0.8  # the built-in's domain, for the independent slice grid
SLICE_COUNTS = (64, 64)
KNOWN_FAULT = ("codazzi_b",)


@dataclass(frozen=True)
class Operation:
    """One ``minkaehler`` call: ``command`` with ``config`` written to a file.

    ``points`` is the number of sample points the call carries through;
    ``tolerated`` names report rows allowed to FAIL because of a known fault.
    """

    command: str
    config: dict
    points: int
    suites: tuple = ()
    tolerated: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple  # the operations of one round
    warmup: Operation  # same code path, smaller input; not measured


def _poly(rng, degree: int = 2) -> list:
    """Unit-modulus constant term, higher coefficients of modulus 0.5..1,
    all with uniform phases."""
    coeffs = [np.exp(2j * np.pi * rng.random())]
    for _ in range(degree):
        coeffs.append(rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.random()))
    return [[float(c.real), float(c.imag)] for c in coeffs]


def random_seed(rng, n: int) -> dict:
    """An inline seed: quadratic alpha0, mu_r and b_j with nonzero leading terms.

    On the disc of radius r = 0.6 the higher terms sum to at most
    r + r^2 = 0.96 < |c_0| = 1 in modulus, so no seed series vanishes there.
    """
    return {
        "n": n,
        "name": f"random-n{n}",
        "alpha0": _poly(rng),
        "mu": [_poly(rng) for _ in range(n)],
        "b": [_poly(rng) for _ in range(n)],
        "domain": {"radius": RANDOM_RADIUS, "w_halfwidth": [RANDOM_W_HALFWIDTH] * (n - 1)},
    }


def random_seeds() -> list:
    rng = np.random.default_rng(RANDOM_DRAW)
    return [random_seed(rng, n) for n in (1, 2, 3)]


def _verify(seed, counts, tolerated=()) -> Operation:
    """``verify`` with default suites; ``counts`` None keeps the default grid."""
    config = {"seed": seed}
    if counts is not None:
        config["sampling"] = {"counts": list(counts)}
    d = 4 if seed == "m4r5" else 2 * seed["n"]
    default = {2: [10, 10], 4: [4, 4, 3, 3]}
    points = math.prod(counts if counts is not None else default[d])
    suites = SUITES if d > 2 else SUITES[:-1]
    return Operation("verify", config, points, suites, tuple(tolerated))


def export_slice(seed: int) -> dict:
    """The slice spec for ``--seed``: a generic phase and pinned w = u + iv."""
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.3, 2.8))
    u, v = (float(x) for x in rng.uniform(-0.3, 0.3, size=2))
    return {
        "axes": [0, 1],
        "counts": list(SLICE_COUNTS),
        "fixed": {"2": u, "3": v},
        "field": "ftheta",
        "theta": theta,
    }


def slice_box() -> tuple:
    """The m4r5 chart box on the z axes: the inscribed square shrunk by 0.7."""
    half = M4R5_RADIUS / math.sqrt(2.0) * 0.7
    return (-half, half)


def make(name: str, seed: int) -> Workload:
    if name == "verify-m4r5":
        return Workload(name, (_verify("m4r5", None),), _verify("m4r5", [2, 2, 2, 2]))
    if name == "verify-random":
        s1, s2, s3 = random_seeds()
        ops = (
            _verify(s1, None, KNOWN_FAULT),
            _verify(s2, None, KNOWN_FAULT),
            _verify(s3, [2] * 6, KNOWN_FAULT),  # the default d = 6 grid has 256 points
        )
        return Workload(name, ops, _verify(s1, [2, 2], KNOWN_FAULT))
    if name == "export-dense":
        spec = export_slice(seed)
        op = Operation("export", {"seed": "m4r5", "export": spec}, math.prod(SLICE_COUNTS))
        warm = dict(spec, counts=[8, 8])
        return Workload(name, (op,), Operation("export", {"seed": "m4r5", "export": warm}, 64))
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
