"""Stochastic-complexity (regret) terms for multinomial NML codes.

The regret reg(n, r) is the log of the NML normalizer of an r-category
multinomial over n observations. The exact value is computed from the
n-term positive sum

    C(n, r) = sum_{l=0}^{n-1} falling(n-1, l) rising(r, l+1) / (n^{l+1} l!)

in log space, each log term the running sum of its term ratios, so no
log-Gamma is needed; two closed-form approximations cover the fixed-r and
the all-ratio asymptotic regimes. All methods return 0 for n = 0 and for
r = 1, where the code has nothing to normalize.
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

# regret_exact refuses an n whose working arrays would exceed this many
# bytes. It holds the n log terms and, while the ratios are formed, two
# (n - 1)-long temporaries: a tracemalloc peak of 24.0 bytes per term at
# n = 10**5 and at n = 10**7 (228.9 MiB), whatever r.
EXACT_BYTES_LIMIT = 1 << 30
_EXACT_BYTES_PER_TERM = 24


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


def _logsumexp(x: np.ndarray) -> float:
    """ln sum exp(x) of a nonempty float array, shifted by its maximum so
    no exp overflows. Overwrites x."""
    top = x.max()
    x -= top
    np.exp(x, out=x)
    return float(top + math.log(x.sum()))


def regret_exact(n: int, r: int) -> float:
    """ln C(n, r) from the finite sum, exact up to float rounding. O(n).

    A ResourceLimitError, raised before anything is allocated, refuses an
    n whose working arrays would exceed EXACT_BYTES_LIMIT.
    """
    _check_args(n, r)
    if n == 0 or r == 1:
        return 0.0
    if n * _EXACT_BYTES_PER_TERM > EXACT_BYTES_LIMIT:
        raise ResourceLimitError(
            f"exact regret at n = {n} needs about "
            f"{n * _EXACT_BYTES_PER_TERM} bytes, beyond the guard of "
            f"{EXACT_BYTES_LIMIT}")
    # ln t_0, then the ratio ln(t_k / t_{k-1}) = ln[(n - k)(r + k) / (n k)]
    # at every k >= 1; one sequential cumsum turns them into ln t_k
    log_terms = np.empty(n)
    log_terms[0] = math.log(r / n)
    steps = log_terms[1:]
    k = np.arange(1.0, n)
    np.subtract(n, k, out=steps)
    steps *= r + k
    k *= n
    steps /= k
    np.log(steps, out=steps)
    np.cumsum(log_terms, out=log_terms)
    return _logsumexp(log_terms)


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
    radix = r ** np.arange(n - 1, -1, -1, dtype=np.int64)
    log_n = math.log(n)
    partials = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // radix) % r
        counts = np.zeros((len(idx), r), dtype=np.int64)
        np.add.at(counts, (np.arange(len(idx))[:, None], digits), 1)
        # x ln x with 0 ln 0 = 0
        ml = (counts * np.log(np.maximum(counts, 1))).sum(axis=1) - n * log_n
        partials.append(_logsumexp(ml))
    return _logsumexp(np.asarray(partials))


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
