import itertools

import numpy as np
import pytest

from bnsl.dataset import Dataset
from bnsl.errors import DataError, ResourceLimitError
from bnsl.scores import ScoreConfig, total_score
from bnsl.structure import (DagStructure, count_tournament_component_dags,
                            cpdag_shd, dag_from_masks, enumerate_dags,
                            is_covered_arc, is_tournament_component_dag,
                            nml_bruteforce, parameter_count,
                            reverse_covered_arc, shd, to_cpdag,
                            topological_order)

from conftest import random_dag, random_dataset


def dag(n, *arcs):
    parents = [[] for _ in range(n)]
    for u, v in arcs:
        parents[v].append(u)
    return DagStructure(n, tuple(tuple(sorted(p)) for p in parents))


def test_structure_validation():
    with pytest.raises(DataError):
        dag(2, (0, 1), (1, 0))  # 2-cycle
    with pytest.raises(DataError):
        dag(3, (0, 1), (1, 2), (2, 0))
    with pytest.raises(DataError):
        DagStructure(2, ((), (1,)))  # self-parent
    with pytest.raises(DataError):
        DagStructure(2, ((), (0, 0)))  # duplicate
    with pytest.raises(DataError):
        DagStructure(2, ((), (5,)))  # out of range
    with pytest.raises(DataError, match="names must be unique"):
        DagStructure(2, ((), (0,)), ("A", "A"))


def test_topological_order_prefers_small_indices():
    g = dag(4, (2, 0), (3, 1))
    # 2 unblocks 0, and 0 < 3, so 0 comes before 3
    assert topological_order(g) == (2, 0, 3, 1)
    assert topological_order(dag(3)) == (0, 1, 2)


def _quadratic_order(n, parents):
    """The reference rule: place the smallest node whose parents are all
    placed, scanning every remaining node each time; None on a cycle."""
    placed, order = set(), []
    remaining = set(range(n))
    while remaining:
        ready = [v for v in sorted(remaining)
                 if all(p in placed for p in parents[v])]
        if not ready:
            return None
        order.append(ready[0])
        placed.add(ready[0])
        remaining.remove(ready[0])
    return tuple(order)


def test_topological_order_matches_the_quadratic_rule(rng):
    # DagStructure refuses a cycle through topological_order itself, so
    # cyclic graphs are given as bare (n, parents) records
    class Graph:
        def __init__(self, n, parents):
            self.n, self.parents = n, parents

    for _ in range(300):
        n = int(rng.integers(1, 10))
        g = random_dag(rng, n, arc_prob=float(rng.random()))
        assert topological_order(g) == _quadratic_order(n, g.parents)
        # arcs added at random, which close a cycle or leave a DAG
        parents = [set(ps) for ps in g.parents]
        for _ in range(int(rng.integers(1, 4))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            parents[v].add(u)
        parents = tuple(tuple(sorted(ps)) for ps in parents)
        want = _quadratic_order(n, parents)
        if want is None:
            with pytest.raises(DataError, match="directed cycle"):
                topological_order(Graph(n, parents))
        else:
            assert topological_order(Graph(n, parents)) == want


def test_covered_arc_detection():
    # 0 -> 1 with common parent 2 of both: covered
    g = dag(3, (2, 0), (2, 1), (0, 1))
    assert is_covered_arc(g, 0, 1)
    # extra parent of child only: not covered
    g2 = dag(4, (2, 0), (2, 1), (0, 1), (3, 1))
    assert not is_covered_arc(g2, 0, 1)
    with pytest.raises(DataError):
        is_covered_arc(g, 1, 0)


def test_reverse_covered_arc_roundtrip(rng):
    for _ in range(20):
        g = random_dag(rng, 5)
        for a, b in [(a, b) for b in range(5) for a in g.parents[b]
                     if is_covered_arc(g, a, b)]:
            g2 = reverse_covered_arc(g, a, b)
            assert g2.has_arc(b, a) and not g2.has_arc(a, b)
            assert is_covered_arc(g2, b, a)
            g3 = reverse_covered_arc(g2, b, a)
            assert g3.parents == g.parents


def test_cpdag_of_chain_is_undirected():
    c = to_cpdag(dag(3, (0, 1), (1, 2)))
    assert c.directed == frozenset()
    assert c.undirected == frozenset({(0, 1), (1, 2)})


def test_cpdag_orients_collider():
    c = to_cpdag(dag(3, (0, 2), (1, 2)))
    assert c.directed == frozenset({(0, 2), (1, 2)})
    assert c.undirected == frozenset()


def test_cpdag_complete_graph_is_undirected():
    c = to_cpdag(dag(3, (0, 1), (0, 2), (1, 2)))
    assert c.directed == frozenset()
    assert len(c.undirected) == 3


def test_cpdag_propagates_collider_consequences():
    # collider 0 -> 2 <- 1 plus 2 - 3: the arc 2 -> 3 is forced, else a
    # new v-structure at 2 would appear
    c = to_cpdag(dag(4, (0, 2), (1, 2), (2, 3)))
    assert (2, 3) in c.directed


def test_cpdag_equivalence_classes_share_output():
    g1 = dag(3, (0, 1), (1, 2))
    g2 = dag(3, (1, 0), (1, 2))
    g3 = dag(3, (2, 1), (1, 0))
    assert to_cpdag(g1) == to_cpdag(g2) == to_cpdag(g3)
    collider = dag(3, (0, 1), (2, 1))
    assert to_cpdag(collider) != to_cpdag(g1)


def skeleton(g):
    return frozenset((min(a, b), max(a, b))
                     for b in range(g.n) for a in g.parents[b])


def vstructs(g):
    out = set()
    for c in range(g.n):
        for a, b in itertools.combinations(g.parents[c], 2):
            if not g.adjacent(a, b):
                out.add((a, b, c))
    return frozenset(out)


def brute_force_cpdag(members):
    """Verma-Pearl characterization: skeleton plus v-structure arcs define
    the class; a pair is directed iff it is oriented the same way in every
    member of the class."""
    directed, undirected = set(), set()
    for u, v in skeleton(members[0]):
        if all(h.has_arc(u, v) for h in members):
            directed.add((u, v))
        elif all(h.has_arc(v, u) for h in members):
            directed.add((v, u))
        else:
            undirected.add((u, v))
    return frozenset(directed), frozenset(undirected)


@pytest.mark.parametrize("n, n_dags, n_classes",
                         [(4, 543, 185), (5, 29281, 8782)], ids=["4", "5"])
def test_cpdag_matches_equivalence_enumeration(n, n_dags, n_classes):
    # every DAG on n nodes, against the pattern of its whole class
    classes = {}
    for h in map(dag_from_masks, enumerate_dags(n)):
        classes.setdefault((skeleton(h), vstructs(h)), []).append(h)
    assert sum(map(len, classes.values())) == n_dags
    assert len(classes) == n_classes
    for members in classes.values():
        directed, undirected = brute_force_cpdag(members)
        for g in members:
            c = to_cpdag(g)
            assert c.directed == directed
            assert c.undirected == undirected


def test_cpdag_shd_hand_cases():
    chain = dag(3, (0, 1), (1, 2))
    collider = dag(3, (0, 1), (2, 1))
    assert cpdag_shd(to_cpdag(chain), to_cpdag(chain)) == 0
    # both pairs flip from undirected to directed
    assert shd(chain, collider) == 2
    empty = dag(3)
    assert shd(chain, empty) == 2
    assert shd(collider, empty) == 2


def test_shd_is_symmetric(rng):
    for _ in range(25):
        a, b = random_dag(rng, 5), random_dag(rng, 5)
        assert shd(a, b) == shd(b, a)
        assert shd(a, a) == 0


def test_tournament_component_recognition():
    assert is_tournament_component_dag(dag(3))
    assert is_tournament_component_dag(dag(3, (0, 1), (0, 2), (1, 2)))
    # component of size 2 joined by one arc is a 2-tournament
    assert is_tournament_component_dag(dag(3, (2, 0)))
    # a chain component of 3 nodes is not complete
    assert not is_tournament_component_dag(dag(3, (0, 1), (1, 2)))


def test_tournament_component_counts_match_reference_sequence():
    expected = [1, 1, 3, 13, 73, 501, 4051, 37633, 394353, 4596553]
    got = [count_tournament_component_dags(n) for n in range(10)]
    assert got == expected
    with pytest.raises(ResourceLimitError):
        count_tournament_component_dags(13)
    with pytest.raises(ResourceLimitError):
        count_tournament_component_dags(-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_tournament_component_count_agrees_with_enumeration(n):
    brute = sum(1 for m in enumerate_dags(n)
                if is_tournament_component_dag(dag_from_masks(m)))
    assert brute == count_tournament_component_dags(n)


def test_enumerate_dags_counts():
    # labeled-DAG counts for n = 1..4
    assert [len(enumerate_dags(n)) for n in range(1, 5)] == [1, 3, 25, 543]
    with pytest.raises(ResourceLimitError):
        enumerate_dags(6)


def test_enumerate_dags_unique_and_acyclic():
    masks = enumerate_dags(3)
    assert len(set(masks)) == len(masks)
    for m in masks:
        topological_order(dag_from_masks(m))  # raises on a cycle


def test_parameter_count():
    assert parameter_count(dag(5), (2,) * 5) == 5
    tournament = dag(3, (0, 1), (0, 2), (1, 2))
    assert parameter_count(tournament, (2, 2, 2)) == 1 + 2 + 4
    assert parameter_count(dag(2, (0, 1)), (3, 4)) == 2 + 3 * 3


def test_joint_nml_single_variable_equals_regret():
    # one variable: the joint NML normalizer is exactly the regret term
    for n_rows, r in ((1, 2), (3, 2), (4, 3)):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, r, (n_rows, 1)).astype(np.int64)
        data = Dataset(("A",), (r,), rows)
        g = DagStructure(1, ((),))
        direct = total_score(data, g,
                             ScoreConfig(criterion="qnml",
                                         regret_method="exact"))
        assert nml_bruteforce(data, g) == pytest.approx(direct, abs=1e-9)


def test_joint_nml_matches_quotient_score_on_two_node_tournament(rng):
    data = random_dataset(rng, 2, 4, max_arity=2)
    g = dag(2, (0, 1))
    cfg = ScoreConfig(criterion="qnml", regret_method="exact")
    assert nml_bruteforce(data, g) == pytest.approx(
        total_score(data, g, cfg), abs=1e-9)


def test_joint_nml_differs_from_quotient_score_on_chain(rng):
    # 3-chain is connected but not complete: the identity must break
    found = False
    for seed in range(30):
        data = random_dataset(np.random.default_rng(seed), 3, 4, max_arity=2)
        g = dag(3, (0, 1), (1, 2))
        cfg = ScoreConfig(criterion="qnml", regret_method="exact")
        if abs(nml_bruteforce(data, g)
               - total_score(data, g, cfg)) > 1e-6:
            found = True
            break
    assert found


def test_joint_nml_guard():
    n = 10
    rows = np.zeros((30, n), dtype=np.int64)
    data = Dataset(tuple(f"X{i}" for i in range(n)), (3,) * n, rows)
    g = DagStructure(n, tuple(() for _ in range(n)))
    with pytest.raises(ResourceLimitError):
        nml_bruteforce(data, g)
