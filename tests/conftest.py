import pytest
from hypothesis import settings

from schottky import PrimeContext, sample_group

# Derandomized examples make every run check the same inputs, and no
# deadline keeps slow or throttled hosts from failing correct code.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def ctx5():
    return PrimeContext(5, 16)


@pytest.fixture(scope="session")
def g5():
    return sample_group(5, 2)


@pytest.fixture(scope="session")
def sample_groups():
    # the worked p=5 group plus three more across primes and multipliers
    return [
        sample_group(5, 2),
        sample_group(3, 2, multiplier_exponent=4),
        sample_group(5, 2, multiplier_exponent=4),
        sample_group(7, 2, multiplier_exponent=2),
    ]
