"""DAG structures, their equivalence classes, and structure-level utilities.

Covers validation and topological ordering, covered-arc tests and reversal,
conversion to the equivalence-class pattern (CPDAG) via v-structure
orientation plus Meek's orientation-propagation rules 1-3, structural Hamming
distance between patterns, tournament-component detection and counting,
exhaustive DAG enumeration for small n, and a brute-force NML evaluator used
as a test oracle.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import Dataset, _loglik, config_indices, contingency
from .errors import DataError, ResourceLimitError
from .regret import _logsumexp

# brute-force NML enumerates (prod arities)^N joint datasets
NML_BRUTEFORCE_LIMIT = 1 << 24
ENUMERATION_MAX_NODES = 5
COUNT_MAX_NODES = 12


@dataclass(frozen=True)
class DagStructure:
    """Directed acyclic graph given by per-node sorted parent tuples."""

    n: int
    parents: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DataError("a graph needs at least one node")
        if len(self.parents) != self.n:
            raise DataError("parent list length must equal the node count")
        parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "parents", parents)
        for child, ps in enumerate(parents):
            if list(ps) != sorted(set(ps)):
                raise DataError(
                    f"parents of node {child} must be sorted without duplicates")
            for p in ps:
                if not 0 <= p < self.n:
                    raise DataError(f"parent index {p} out of range")
                if p == child:
                    raise DataError(f"node {child} cannot be its own parent")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != self.n:
                raise DataError("names length must equal the node count")
            object.__setattr__(self, "names", names)
        topological_order(self)  # raises on cycles

    def arc_count(self) -> int:
        return sum(len(ps) for ps in self.parents)

    def has_arc(self, a: int, b: int) -> bool:
        return a in self.parents[b]

    def adjacent(self, a: int, b: int) -> bool:
        return a in self.parents[b] or b in self.parents[a]


def topological_order(g: DagStructure) -> tuple[int, ...]:
    """Topological order of g; ties are broken by smallest node index.

    Kahn's algorithm with a min-heap of the nodes whose parents are all
    placed, so each step places the smallest of them.
    """
    children = [[] for _ in range(g.n)]
    waiting = [len(ps) for ps in g.parents]
    for v, ps in enumerate(g.parents):
        for p in ps:
            children[p].append(v)
    ready = [v for v in range(g.n) if not waiting[v]]
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for c in children[v]:
            waiting[c] -= 1
            if not waiting[c]:
                heapq.heappush(ready, c)
    if len(order) < g.n:
        raise DataError("graph contains a directed cycle")
    return tuple(order)


def is_covered_arc(g: DagStructure, a: int, b: int) -> bool:
    """True when the arc a -> b is covered: parents(b) = {a} + parents(a)."""
    if not g.has_arc(a, b):
        raise DataError(f"no arc {a} -> {b} in the graph")
    return set(g.parents[b]) == {a} | set(g.parents[a])


def reverse_covered_arc(g: DagStructure, a: int, b: int) -> DagStructure:
    """Reverse a covered arc a -> b, staying inside the equivalence class."""
    if not is_covered_arc(g, a, b):
        raise DataError(f"arc {a} -> {b} is not covered")
    parents = list(g.parents)
    parents[b] = tuple(p for p in parents[b] if p != a)
    parents[a] = tuple(sorted(parents[a] + (b,)))
    return DagStructure(g.n, tuple(parents), g.names)


@dataclass(frozen=True)
class Cpdag:
    """Equivalence-class pattern: compelled arcs plus reversible edges."""

    n: int
    directed: frozenset
    undirected: frozenset

    def __post_init__(self):
        directed = frozenset((int(u), int(v)) for u, v in self.directed)
        undirected = frozenset(
            (min(int(u), int(v)), max(int(u), int(v))) for u, v in self.undirected)
        object.__setattr__(self, "directed", directed)
        object.__setattr__(self, "undirected", undirected)
        for u, v in directed | undirected:
            if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
                raise DataError("edge endpoint out of range")
        spans = {(min(u, v), max(u, v)) for u, v in directed}
        if spans & undirected:
            raise DataError("an edge cannot be both directed and undirected")


def _neighbors(g: DagStructure) -> list[set[int]]:
    """The skeleton of g: the set of adjacent nodes of each node."""
    adj = [set(ps) for ps in g.parents]
    for child, ps in enumerate(g.parents):
        for p in ps:
            adj[p].add(child)
    return adj


def to_cpdag(g: DagStructure) -> Cpdag:
    """Pattern of g's equivalence class.

    Starts from the skeleton with only the v-structure arcs directed, then
    orients an undirected edge x - y as x -> y while one of these holds:

      1: a -> x for some a nonadjacent to y
      2: x -> b -> y for some b
      3: c -> y <- d for some c - x - d with c and d nonadjacent

    Starting from a DAG's skeleton with its v-structures oriented, these
    three rules are complete (Meek, UAI 1995); Meek's fourth rule is needed
    only with background knowledge, which to_cpdag never has.
    """
    n = g.n
    adj = _neighbors(g)
    pa = [set() for _ in range(n)]  # directed parents
    for child, ps in enumerate(g.parents):
        for a, b in itertools.combinations(ps, 2):
            if b not in adj[a]:
                pa[child] |= {a, b}
    ne = [{u for u in adj[v] - pa[v] if v not in pa[u]} for v in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in sorted(ne[x]):
                if (any(a not in adj[y] for a in pa[x])
                        or any(x in pa[b] for b in pa[y])
                        or any(d not in adj[c] for c, d in
                               itertools.combinations(ne[x] & pa[y], 2))):
                    ne[x].discard(y)
                    ne[y].discard(x)
                    pa[y].add(x)
                    changed = True
    directed = frozenset((p, v) for v in range(n) for p in pa[v])
    undirected = frozenset((u, v) for u in range(n) for v in ne[u] if u < v)
    return Cpdag(n, directed, undirected)


def _pair_status(p: Cpdag):
    status = {}
    for u, v in p.undirected:
        status[(u, v)] = "undirected"
    for u, v in p.directed:
        status[(min(u, v), max(u, v))] = ("->" if u < v else "<-")
    return status


def cpdag_shd(p1: Cpdag, p2: Cpdag) -> int:
    """Number of node pairs whose edge status differs between two patterns."""
    if p1.n != p2.n:
        raise DataError("patterns must share the node count")
    s1, s2 = _pair_status(p1), _pair_status(p2)
    pairs = set(s1) | set(s2)
    return sum(1 for pair in pairs if s1.get(pair) != s2.get(pair))


def shd(g1: DagStructure, g2: DagStructure) -> int:
    """Structural Hamming distance between the equivalence classes of two DAGs."""
    if g1.n != g2.n:
        raise DataError("graphs must share the node count")
    return cpdag_shd(to_cpdag(g1), to_cpdag(g2))


def is_tournament_component_dag(g: DagStructure) -> bool:
    """True when every connected component induces a complete (tournament) DAG.

    That holds exactly when any two neighbors of a node are adjacent.
    """
    adj = _neighbors(g)
    return all(b in adj[a]
               for nb in adj for a, b in itertools.combinations(nb, 2))


def count_tournament_component_dags(n: int) -> int:
    """Number of labeled DAGs on n nodes whose components are all tournaments.

    Components are linear orders on their node sets, so the count is the
    number of ways to partition n labeled items into a set of nonempty
    sequences: the sum over k of the Lah numbers C(n-1, k-1) n! / k!.
    """
    if not 0 <= n <= COUNT_MAX_NODES:
        raise ResourceLimitError(
            f"tournament-component count supported for 0 <= n <= "
            f"{COUNT_MAX_NODES}, got {n}")
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k - 1) * (math.factorial(n) // math.factorial(k))
               for k in range(1, n + 1))


@lru_cache(maxsize=None)
def enumerate_dags(n: int) -> tuple[tuple[int, ...], ...]:
    """Every labeled DAG on n nodes, as tuples of per-node parent bitmasks.

    Vectorized filter over all 2^(n(n-1)) parent-set assignments; refuses
    n > 5 where that space stops being enumerable.
    """
    if not 1 <= n <= ENUMERATION_MAX_NODES:
        raise ResourceLimitError(
            f"exhaustive DAG enumeration supported for n <= "
            f"{ENUMERATION_MAX_NODES}, got {n}")
    base = 1 << (n - 1)
    total = base ** n
    idx = np.arange(total, dtype=np.int64)
    masks = np.empty((total, n), dtype=np.int64)
    for i in range(n):
        comp = (idx // base ** i) % base
        low = comp & ((1 << i) - 1)
        masks[:, i] = low | ((comp >> i) << (i + 1))
    removed = np.zeros(total, dtype=np.int64)
    bits = 1 << np.arange(n, dtype=np.int64)
    alive = np.ones((total, n), dtype=bool)
    for _ in range(n):
        ready = alive & ((masks & ~removed[:, None]) == 0)
        removed |= (ready * bits).sum(axis=1)
        alive &= ~ready
    keep = masks[removed == (1 << n) - 1]
    return tuple(tuple(int(m) for m in row) for row in keep)


def mask_to_parents(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def dag_from_masks(masks, names=None) -> DagStructure:
    return DagStructure(len(masks), tuple(mask_to_parents(m) for m in masks),
                        names)


def parameter_count(g: DagStructure, arities) -> int:
    """Free-parameter count sum_i q_i (r_i - 1) with full parent-space q_i."""
    if len(arities) != g.n:
        raise DataError("arities length must equal the node count")
    total = 0
    for child, ps in enumerate(g.parents):
        q = 1
        for p in ps:
            q *= int(arities[p])
        total += q * (int(arities[child]) - 1)
    return total


def _dataset_max_loglik(data: Dataset, g: DagStructure) -> float:
    total = 0.0
    for child in range(g.n):
        counts = contingency(data, child, g.parents[child])
        total += _loglik(counts, counts.sum(axis=1))
    return total


@lru_cache(maxsize=None)
def _nml_log_normalizer(arities: tuple[int, ...], parents: tuple[tuple[int, ...], ...],
                        n_rows: int) -> float:
    """ln sum over all datasets D' of P(D' | ML parameters of D'), by enumeration."""
    n = len(arities)
    m = 1
    for a in arities:
        m *= a
    total = m ** n_rows
    if total > NML_BRUTEFORCE_LIMIT:
        raise ResourceLimitError(
            f"{m}**{n_rows} candidate datasets exceed the enumeration guard")
    # decode every joint cell into per-variable values once
    cells = np.arange(m, dtype=np.int64)
    values = np.empty((m, n), dtype=np.int64)
    rem = cells.copy()
    for i in range(n - 1, -1, -1):
        values[:, i] = rem % arities[i]
        rem //= arities[i]
    # per-variable lookup: joint cell -> (parent config, child value) pair id
    pair_ids = []
    pair_sizes = []
    parent_ids = []
    parent_sizes = []
    for i in range(n):
        ps = parents[i]
        q = 1
        for p in ps:
            q *= arities[p]
        j = config_indices(values, ps, arities)
        pair_ids.append(j * arities[i] + values[:, i])
        pair_sizes.append(q * arities[i])
        parent_ids.append(j)
        parent_sizes.append(q)
    radix = m ** np.arange(n_rows - 1, -1, -1, dtype=np.int64)
    partials = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows_cells = (idx[:, None] // radix) % m  # joint cell per data row
        t = len(idx)
        loglik = np.zeros(t)
        rows_range = np.arange(t)[:, None]
        for i in range(n):
            pc = np.zeros((t, pair_sizes[i]), dtype=np.int64)
            np.add.at(pc, (rows_range, pair_ids[i][rows_cells]), 1)
            jc = np.zeros((t, parent_sizes[i]), dtype=np.int64)
            np.add.at(jc, (rows_range, parent_ids[i][rows_cells]), 1)
            # x ln x with 0 ln 0 = 0
            loglik += ((pc * np.log(np.maximum(pc, 1))).sum(axis=1)
                       - (jc * np.log(np.maximum(jc, 1))).sum(axis=1))
        partials.append(_logsumexp(loglik))
    return _logsumexp(np.asarray(partials))


def nml_bruteforce(data: Dataset, g: DagStructure) -> float:
    """Exact NML log-score of the data under g, by literal dataset enumeration.

    Returns the maximized log-likelihood minus the log-normalizer summed over
    every possible dataset of the same shape. Test oracle only; the guard
    refuses more than 2**24 candidate datasets.
    """
    if data.n_vars != g.n:
        raise DataError("dataset and graph variable counts differ")
    if data.n_rows == 0:
        return 0.0
    norm = _nml_log_normalizer(data.arities, g.parents, data.n_rows)
    return _dataset_max_loglik(data, g) - norm
