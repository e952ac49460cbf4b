"""Self-checks of the benchmark's input generation.

Run with: python3 -m pytest perfbench
"""

import pytest

from workloads import WORKLOADS, generate


def _configs(workload, seed):
    return [(c.command, c.cli_seed, c.config_bytes()) for c in generate(workload, seed)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    assert _configs(workload, 5) == _configs(workload, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_configs(workload):
    first, second = _configs(workload, 5), _configs(workload, 6)
    assert len(first) == len(second)
    assert all(a != b for a, b in zip(first, second))
