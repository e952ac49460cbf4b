import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# derandomize: every run draws the same examples, so a tier-1 failure reproduces
settings.register_profile(
    "suite",
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def say(capfd):
    """Print a line on the real terminal, bypassing capture."""

    def _say(line: str):
        with capfd.disabled():
            print(line, flush=True)

    return _say
