import pytest
from hypothesis import settings

from toricsyz import Config, ResolutionEngine, Semigroup

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=25, database=None,
)
settings.load_profile("tier1")

EXAMPLE_COLUMNS = [[4, 1], [5, 1], [7, 1], [8, 1]]


@pytest.fixture(scope="session")
def example_semigroup():
    return Semigroup(2, EXAMPLE_COLUMNS)


@pytest.fixture(scope="session")
def numerical_semigroup():
    return Semigroup(1, [[2], [3]])


@pytest.fixture()
def engine(example_semigroup):
    return ResolutionEngine(example_semigroup, Config())


@pytest.fixture()
def debug_engine(example_semigroup):
    return ResolutionEngine(example_semigroup, Config(debug_checks=True))
