import pytest

from uspkit import bruteforce


@pytest.fixture(scope="session")
def brute_tables_1e5():
    """(sigma, sigma*) divisor-sweep tables for 0..10**5."""
    return bruteforce.divisor_sum_tables(10**5)


@pytest.fixture(scope="session")
def brute_tables_2e5():
    """(sigma, sigma*) divisor-sweep tables for 0..2 * 10**5."""
    return bruteforce.divisor_sum_tables(2 * 10**5)
