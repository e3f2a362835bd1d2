import numpy as np
import pytest
from hypothesis import settings

from mvcoords.audit import random_convex_polygon

# property tests draw the same examples on every run, so a failure is
# reproducible and the suite's time does not drift
settings.register_profile("derandomized", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def polygon_suite():
    """A dozen random unit-diameter convex polygons shared by the suite.

    Session-scoped so the generator cost is paid once; tests must not
    mutate them (Polygon is frozen anyway).
    """
    rng = np.random.default_rng(20240814)
    return [random_convex_polygon(rng) for _ in range(12)]


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
