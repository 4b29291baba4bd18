"""Stochastic-complexity (regret) terms for multinomial NML codes.

The regret reg(n, r) is the log of the NML normalizer of an r-category
multinomial over n observations. The exact value is computed from the
n-term positive sum

    C(n, r) = sum_{l=0}^{n-1} falling(n-1, l) rising(r, l+1) / (n^{l+1} l!)

evaluated in log space; two closed-form approximations cover the fixed-r
and the all-ratio asymptotic regimes. All methods return 0 for n = 0 and
for r = 1, where the code has nothing to normalize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import distinct
from .errors import DataError, ResourceLimitError

METHODS = ("exact", "szp-small-r", "szp-all-range")
_ALIASES = {
    "exact": "exact",
    "szp1": "szp-small-r",
    "szp-small-r": "szp-small-r",
    "szp2": "szp-all-range",
    "szp-all-range": "szp-all-range",
}

# literal sequence enumeration refuses beyond this many sequences
BRUTEFORCE_LIMIT = 1 << 24


def canonical_method(tag: str) -> str:
    """Map a method tag or CLI alias onto its canonical name; anything else,
    a tag that is not a str included, is a DataError."""
    if not isinstance(tag, str) or tag not in _ALIASES:
        raise DataError(f"unknown regret method {tag!r}")
    return _ALIASES[tag]


def _check_args(n: int, r: int) -> None:
    if n < 0:
        raise DataError(f"sample count must be nonnegative, got {n}")
    if r < 1:
        raise DataError(f"category count must be at least 1, got {r}")


def regret_exact(n: int, r: int) -> float:
    """ln C(n, r) from the finite sum, exact up to float rounding. O(n)."""
    _check_args(n, r)
    if n == 0 or r == 1:
        return 0.0
    from scipy.special import gammaln, logsumexp
    l = np.arange(n, dtype=np.float64)
    log_terms = (gammaln(n) - gammaln(n - l)
                 + gammaln(r + l + 1.0) - gammaln(r)
                 - (l + 1.0) * math.log(n) - gammaln(l + 1.0))
    return float(logsumexp(log_terms))


def regret_szp_small_r(n: int, r: int) -> float:
    """Fixed-r expansion of ln C(n, r); degrades badly once r outgrows n.

    Uses math.lgamma for the Gamma(r/2) / Gamma((r-1)/2) ratio. When r >> n
    the two 1/n correction terms are huge and nearly cancel, so the result
    is sensitive to the lgamma rounding profile; the libm one reproduces
    the reference values in that regime.
    """
    _check_args(n, r)
    if n == 0 or r == 1:
        return 0.0
    # the (r-1)/2 pole at r = 1 is handled by the early return above
    gratio = math.exp(math.lgamma(0.5 * r) - math.lgamma(0.5 * (r - 1.0)))
    return (math.sqrt(2.0) * r * gratio / (3.0 * math.sqrt(n))
            + 0.5 * (r - 1.0) * math.log(0.5 * n)
            - math.lgamma(0.5 * r) + 0.5 * math.log(math.pi)
            - r * r * gratio * gratio / (9.0 * n)
            + (2.0 * r ** 3 - 3.0 * r ** 2 - 2.0 * r + 3.0) / (36.0 * n))


def regret_szp_all_range(n: int, r: int) -> float:
    """Approximation of ln C(n, r) that stays accurate for every n : r ratio."""
    _check_args(n, r)
    if n == 0 or r == 1:
        return 0.0
    alpha = r / n
    ca = 0.5 + 0.5 * math.sqrt(1.0 + 4.0 / alpha)
    return (n * (math.log(alpha) + (alpha + 2.0) * math.log(ca) - 1.0 / ca)
            - 0.5 * math.log(ca + 2.0 / alpha))


def regret_bruteforce_oracle(n: int, r: int) -> float:
    """ln of the summed ML probabilities over every length-n sequence.

    Literal enumeration of all r**n sequences; refuses beyond 2**24 of them.
    Serves as the independent oracle for regret_exact.
    """
    _check_args(n, r)
    if n == 0 or r == 1:
        return 0.0
    total = r ** n
    if total > BRUTEFORCE_LIMIT:
        raise ResourceLimitError(
            f"{r}**{n} sequences exceed the enumeration guard of "
            f"{BRUTEFORCE_LIMIT}")
    from scipy.special import logsumexp, xlogy
    radix = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    log_n = math.log(n)
    partials = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // radix) % r
        counts = np.zeros((len(idx), r), dtype=np.int64)
        np.add.at(counts, (np.arange(len(idx))[:, None], digits), 1)
        ml = xlogy(counts, counts).sum(axis=1) - n * log_n
        partials.append(logsumexp(ml))
    return float(logsumexp(np.asarray(partials)))


_METHOD_FNS = {
    "exact": regret_exact,
    "szp-small-r": regret_szp_small_r,
    "szp-all-range": regret_szp_all_range,
}


def regret(n: int, r: int, method: str = "exact") -> float:
    """Multinomial regret by the named method (aliases accepted)."""
    return _METHOD_FNS[canonical_method(method)](n, r)


@dataclass
class RegretCache:
    """Memoized regret lookups for one method."""

    method: str = "szp-all-range"
    memo: dict = field(default_factory=dict)
    # r -> the values get(n, r) so far at index n, NaN where not yet asked
    by_count: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.method = canonical_method(self.method)

    def get(self, n: int, r: int) -> float:
        key = (int(n), int(r))
        value = self.memo.get(key)
        if value is None:
            value = _METHOD_FNS[self.method](key[0], key[1])
            self.memo[key] = value
        return value

    def get_many(self, counts: np.ndarray, r: int) -> np.ndarray:
        """get(n, r) of every n in an array of sample counts, in order."""
        known = self.by_count.get(r)
        top = int(counts.max(initial=0))
        if known is None or top >= len(known):
            grown = np.full(top + 1, np.nan)
            if known is not None:
                grown[:len(known)] = known
            self.by_count[r] = known = grown
        out = known[counts]
        missing = np.isnan(out)
        if missing.any():
            for n in distinct(counts[missing]).tolist():
                known[n] = self.get(n, r)
            out = known[counts]
        return out


_shared: dict[str, RegretCache] = {}


def shared_cache(method: str) -> RegretCache:
    """Process-wide cache per method, shared across scorers."""
    method = canonical_method(method)
    cache = _shared.get(method)
    if cache is None:
        cache = _shared[method] = RegretCache(method)
    return cache
