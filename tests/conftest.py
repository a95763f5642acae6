import math
import os
from pathlib import Path

import numpy as np
import pytest

import minkaehler
from minkaehler.seeds import builtin_seed
from minkaehler.weierstrass import SeriesChart, seed_from_json


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that must import this ``minkaehler``.

    PYTHONPATH starts with the absolute directory holding the imported
    package, followed by the caller's own PYTHONPATH, so the child finds the
    same package from a checkout or an install, whatever its working
    directory.
    """
    root = str(Path(minkaehler.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([root, inherited] if inherited else [root])
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="session")
def enneper_seed():
    return builtin_seed("enneper")


@pytest.fixture(scope="session")
def catenoid_seed():
    return builtin_seed("catenoid")


@pytest.fixture(scope="session")
def m4r5_seed():
    return builtin_seed("m4r5")


@pytest.fixture(scope="session")
def enneper_chart(enneper_seed):
    return SeriesChart(enneper_seed)


@pytest.fixture(scope="session")
def enneper_fbar(enneper_seed):
    return SeriesChart(enneper_seed, math.pi / 2)


@pytest.fixture(scope="session")
def catenoid_chart(catenoid_seed):
    return SeriesChart(catenoid_seed)


@pytest.fixture(scope="session")
def catenoid_fbar(catenoid_seed):
    return SeriesChart(catenoid_seed, math.pi / 2)


@pytest.fixture(scope="session")
def m4r5_chart(m4r5_seed):
    return SeriesChart(m4r5_seed)


@pytest.fixture(scope="session")
def m4r5_fbar(m4r5_seed):
    return SeriesChart(m4r5_seed, math.pi / 2)


@pytest.fixture(scope="session")
def n3_chart():
    """An inline n = 3 seed (M^6 in R^7) with quadratic coefficients."""
    seed = seed_from_json(
        {
            "n": 3,
            "name": "inline-n3",
            "alpha0": [[1.0, 0.0], [0.3, -0.4], [0.2, 0.5]],
            "mu": [
                [[0.0, 1.0], [0.5, 0.1], [-0.3, 0.2]],
                [[0.8, 0.6], [-0.2, 0.4], [0.1, -0.3]],
                [[-1.0, 0.0], [0.1, 0.6], [0.4, 0.2]],
            ],
            "b": [
                [[0.6, -0.8], [0.3, 0.3], [-0.5, 0.1]],
                [[1.0, 0.0], [-0.4, -0.2], [0.2, 0.3]],
                [[0.0, -1.0], [0.2, -0.5], [0.3, 0.4]],
            ],
            "domain": {"radius": 0.6, "w_halfwidth": [0.5, 0.5]},
        }
    )
    return SeriesChart(seed)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
