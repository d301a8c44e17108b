import numpy as np
import pytest

from succinctrmq.rmq import RmqIndex


@pytest.fixture(scope="session")
def index_1e6():
    """One shared million-element index for the expensive checks."""
    values = np.random.default_rng(1_000_003).permutation(1_000_000).tolist()
    return RmqIndex.build(values, codec="entropy")
