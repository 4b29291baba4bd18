import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnsl.cli import main
from bnsl.errors import DataError, ResourceLimitError
from bnsl.regret import (RegretCache, canonical_method, regret,
                         regret_bruteforce_oracle, regret_exact,
                         regret_szp_all_range, regret_szp_small_r,
                         shared_cache)

# the package exports a function named regret, so `from bnsl import regret`
# does not give the module
regret_module = importlib.import_module("bnsl.regret")

# Published reference grid: (n, r) -> (small-r expansion, all-range
# approximation, exact), printed to two decimals.
REFERENCE_TABLE = {
    (50, 10): (13.24, 13.26, 13.24),
    (50, 100): (62.00, 60.01, 60.00),
    (50, 1000): (491.63, 153.28, 153.28),
    (50, 10000): (25635.15, 265.28, 265.28),
    (500, 10): (22.67, 22.69, 22.67),
    (500, 100): (144.10, 144.03, 144.03),
    (500, 1000): (624.35, 603.93, 603.93),
    (500, 10000): (4927.24, 1533.38, 1533.38),
    (5000, 10): (32.74, 32.76, 32.74),
    (5000, 100): (247.97, 247.97, 247.97),
    (5000, 1000): (1452.51, 1451.78, 1451.78),
    (5000, 10000): (6247.83, 6043.16, 6043.16),
}


def test_reference_table_all_cells():
    for (n, r), (small, allr, exact) in REFERENCE_TABLE.items():
        assert regret_szp_small_r(n, r) == pytest.approx(small, abs=0.01)
        assert regret_szp_all_range(n, r) == pytest.approx(allr, abs=0.01)
        assert regret_exact(n, r) == pytest.approx(exact, abs=0.01)


def test_exact_small_closed_forms():
    # C(2,2) = 2.5, C(4,2) = 3.21875; C(1,r) = r; C(n,1) = 1
    assert regret_exact(2, 2) == pytest.approx(math.log(2.5), abs=1e-12)
    assert regret_exact(4, 2) == pytest.approx(math.log(3.21875), abs=1e-12)
    for r in (1, 2, 5, 17):
        assert regret_exact(1, r) == pytest.approx(math.log(r), abs=1e-12)
    for n in (1, 2, 10, 500):
        assert regret_exact(n, 1) == 0.0


def test_degenerate_arguments_are_zero_for_every_method():
    for fn in (regret_exact, regret_szp_small_r, regret_szp_all_range):
        assert fn(0, 5) == 0.0
        assert fn(7, 1) == 0.0


def test_invalid_arguments():
    for fn in (regret_exact, regret_szp_small_r, regret_szp_all_range):
        with pytest.raises(DataError):
            fn(-1, 2)
        with pytest.raises(DataError):
            fn(3, 0)


@given(st.integers(1, 8), st.integers(2, 3))
@settings(max_examples=25)
def test_exact_agrees_with_enumeration(n, r):
    assert regret_exact(n, r) == pytest.approx(
        regret_bruteforce_oracle(n, r), abs=1e-9)


def _exact_sum_log(n, r):
    """ln C(n, r) from the n terms summed as exact fractions."""
    term = Fraction(r, n)
    total = term
    for l in range(n - 1):
        term *= Fraction((n - 1 - l) * (r + l + 1), n * (l + 1))
        total += term
    return math.log(total.numerator) - math.log(total.denominator)


@pytest.mark.parametrize("r", [2, 10, 1000, 10 ** 4])
def test_exact_agrees_with_fraction_sum(r):
    # beyond brute force's r**n <= 2**24: the same finite sum, every term
    # and the total exact, so only the final logs round
    for n in (1, 2, 3, 17, 64, 150, 299, 300):
        want = _exact_sum_log(n, r)
        assert regret_exact(n, r) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [10 ** 4, 10 ** 5])
def test_exact_follows_the_recurrence_in_r(n):
    # Kontkanen & Myllymaki (IPL 2007): C(n, r + 2) = C(n, r + 1)
    # + (n / r) C(n, r), here in log space for r = 1..64
    logs = [regret_exact(n, r) for r in range(1, 67)]
    for r in range(1, 65):
        want = np.logaddexp(logs[r], math.log(n / r) + logs[r - 1])
        assert logs[r + 1] == pytest.approx(want, rel=1e-12)


def test_exact_byte_guard(monkeypatch):
    # the bound is in bytes, 24 a term: n = 1000 fits 24 000 bytes and
    # n = 1001 is refused, by the CLI with exit code 3
    monkeypatch.setattr(regret_module, "EXACT_BYTES_LIMIT", 24 * 1000)
    assert regret_exact(1000, 3) > 0
    with pytest.raises(ResourceLimitError):
        regret_exact(1001, 3)
    argv = ["regret", "--n", "1001", "--r", "3", "--method", "exact"]
    assert main(argv) == 3


def test_enumeration_guard():
    with pytest.raises(ResourceLimitError):
        regret_bruteforce_oracle(30, 4)


@given(st.integers(0, 200), st.integers(1, 50))
def test_exact_nondecreasing_in_both_arguments(n, r):
    assert regret_exact(n + 1, r) >= regret_exact(n, r)
    assert regret_exact(n, r + 1) >= regret_exact(n, r)


def test_all_range_tracks_exact_on_reference_grid():
    # documented error band for the production approximation
    for n, r in REFERENCE_TABLE:
        assert abs(regret_szp_all_range(n, r) - regret_exact(n, r)) <= 0.05


def test_small_r_diverges_when_alphabet_outgrows_sample():
    # the small-alphabet expansion is only trustworthy for r << n
    assert regret_szp_small_r(50, 1000) - regret_exact(50, 1000) > 100


def test_method_aliases():
    assert canonical_method("szp1") == "szp-small-r"
    assert canonical_method("szp2") == "szp-all-range"
    assert canonical_method("exact") == "exact"
    with pytest.raises(DataError):
        canonical_method("newton")


def test_dispatcher_matches_named_functions():
    assert regret(20, 4, "exact") == regret_exact(20, 4)
    assert regret(20, 4, "szp1") == regret_szp_small_r(20, 4)
    assert regret(20, 4, "szp2") == regret_szp_all_range(20, 4)


def test_cache_returns_identical_values():
    cache = RegretCache("szp2")
    assert cache.method == "szp-all-range"
    v1 = cache.get(100, 6)
    v2 = cache.get(100, 6)
    assert v1 == v2 == regret_szp_all_range(100, 6)
    assert shared_cache("exact") is shared_cache("exact")
    assert shared_cache("exact") is not shared_cache("szp2")


def test_cache_array_lookup_matches_scalar_lookups():
    cache = RegretCache("exact")
    for counts in ([3, 1, 3, 40], [2, 2], [120, 1, 7, 0]):
        counts = np.array(counts, dtype=np.int64)
        for r in (1, 2, 5):
            got = cache.get_many(counts, r)
            assert got.tolist() == [regret_exact(int(n), r) for n in counts]
    assert cache.get_many(np.zeros(0, dtype=np.int64), 3).size == 0

def test_large_arguments_stay_finite():
    v = regret_exact(100000, 64)
    assert np.isfinite(v) and v > 0
    assert np.isfinite(regret_szp_all_range(10 ** 9, 10 ** 6))
