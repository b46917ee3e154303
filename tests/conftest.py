import pytest

from uspkit import bruteforce


@pytest.fixture(scope="session")
def brute_tables_4e5():
    """(sigma, sigma*) divisor-sweep tables for 0..4 * 10**5."""
    return bruteforce.divisor_sum_tables(4 * 10**5)


@pytest.fixture(scope="session")
def brute_tables_1e5(brute_tables_4e5):
    """(sigma, sigma*) divisor-sweep tables for 0..10**5."""
    return tuple(table[: 10**5 + 1] for table in brute_tables_4e5)


@pytest.fixture(scope="session")
def brute_tables_2e5(brute_tables_4e5):
    """(sigma, sigma*) divisor-sweep tables for 0..2 * 10**5."""
    return tuple(table[: 2 * 10**5 + 1] for table in brute_tables_4e5)
