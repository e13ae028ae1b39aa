import os

# One BLAS thread, as in CI: on a small host a second OpenBLAS thread spins
# between the attack's small solves and slows every other test process.
# Set before anything imports numpy, which reads it once at load time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from privsum.graph import default_demo_graph
from privsum.weights import WeightParams


@pytest.fixture
def demo_graph():
    return default_demo_graph()


@pytest.fixture
def demo_params():
    return WeightParams(big_k=1, epsilon=0.01)


@pytest.fixture
def demo_x0():
    return [10.0, 15.0, 20.0, 25.0, 30.0]
