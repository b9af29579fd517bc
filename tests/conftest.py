import random

import pytest

from goodprimes.factor import SearchBudget


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def tiny_budget():
    # forces incomplete results: almost no trial division, almost no rho
    return SearchBudget(trial_division_bound=10, rho_iteration_cap=2, max_depth=3)
