"""Acceptance gate: one test per documented claim the package must meet.

Each test prints a single ``[acceptance NN] PASS/FAIL`` line with the
measured quantities before asserting, so a plain ``pytest -s`` run reads
as a checklist. Tolerances and time budgets are part of the claims.
"""

import json
import math
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from bnsl.bench import (
    DEFAULT_CRITERIA,
    ExperimentSpec,
    bundled_path,
    run_param_count,
    run_predict_rank,
    run_regret_table,
)
from bnsl.dataset import Dataset, empirical_cond_entropy, write_dataset
from bnsl.learner import compute_local_scores, learn_bruteforce, learn_exact
from bnsl.model import load_network, sample
from bnsl.regret import regret_bruteforce_oracle, regret_exact
from bnsl.scores import CRITERIA, ScoreConfig, local_score, total_score
from bnsl.structure import (
    cpdag_shd,
    count_tournament_component_dags,
    dag_from_masks,
    DagStructure,
    enumerate_dags,
    is_covered_arc,
    is_tournament_component_dag,
    nml_bruteforce,
    reverse_covered_arc,
    to_cpdag,
)

from conftest import child_env, random_dataset, random_dag

QNML_EXACT = ScoreConfig(criterion="qnml", regret_method="exact")
FNML_EXACT = ScoreConfig(criterion="fnml", regret_method="exact")

# reference regret grid: (N, r) -> (small-r expansion, all-range, exact)
TABLE1 = {
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


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_acceptance_01_regret_table_reproduction():
    start = time.perf_counter()
    rows = run_regret_table()
    elapsed = time.perf_counter() - start
    worst = 0.0
    for row in rows[1:]:
        n, r = int(row[0]), int(row[1])
        for got, want in zip(map(float, row[2:]), TABLE1[(n, r)]):
            worst = max(worst, abs(got - want))
    report(1, worst <= 0.01 and elapsed < 1.0,
           f"12 rows x 3 columns, max deviation {worst:.4f} "
           f"(tol 0.01), {elapsed:.2f}s (< 1s)")


def test_acceptance_02_regret_exact_vs_enumeration():
    start = time.perf_counter()
    worst, cases = 0.0, 0
    for n in range(0, 11):
        for r in range(1, 4):
            worst = max(worst, abs(regret_exact(n, r)
                                   - regret_bruteforce_oracle(n, r)))
            cases += 1
    elapsed = time.perf_counter() - start
    report(2, cases == 33 and worst <= 1e-9 and elapsed < 10.0,
           f"{cases} cases N<=10 r<=3, max |exact - enumeration| "
           f"{worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 10s)")


def covered_arc_choices(g):
    return [(a, b) for b in range(g.n) for a in g.parents[b]
            if is_covered_arc(g, a, b)]


def test_acceptance_03_covered_arc_reversal_invariance():
    rng = np.random.default_rng(31)
    configs = (QNML_EXACT,
               ScoreConfig(criterion="bdeu", alpha=1.0),
               ScoreConfig(criterion="bdq", alpha=0.5))
    trials, worst = 0, 0.0
    while trials < 500:
        n = int(rng.integers(2, 7))
        data = random_dataset(rng, n, int(rng.integers(1, 51)))
        g = random_dag(rng, n)
        covered = covered_arc_choices(g)
        if not covered:
            continue
        a, b = covered[int(rng.integers(len(covered)))]
        rev = reverse_covered_arc(g, a, b)
        for cfg in configs:
            diff = abs(total_score(data, g, cfg) - total_score(data, rev, cfg))
            worst = max(worst, diff)
        trials += 1

    # one criterion must NOT be reversal invariant: a fixed dataset where
    # reversing a covered arc moves the factorized score
    rows = np.array([[0, 0], [0, 1], [1, 1], [1, 1]], dtype=np.int64)
    counter = Dataset(("A", "B"), (2, 2), rows)
    g = DagStructure(2, ((), (0,)))
    gap = abs(total_score(counter, g, FNML_EXACT)
              - total_score(counter, reverse_covered_arc(g, 0, 1), FNML_EXACT))

    report(3, worst <= 1e-8 and gap > 1e-6,
           f"500 triples, max reversal drift {worst:.2e} (tol 1e-8) for "
           f"qnml/bdeu/bdq; fnml counterexample moves {gap:.4f} (> 1e-6)")


def test_acceptance_04_tournament_structures_match_joint_nml():
    rng = np.random.default_rng(4)
    structures = {
        n: [g for g in map(dag_from_masks, enumerate_dags(n))
            if is_tournament_component_dag(g)]
        for n in (2, 3)
    }
    worst, cases = 0.0, 0
    for _ in range(100):
        n = int(rng.choice([2, 3]))
        n_rows = int(rng.choice([2, 3, 4]))
        data = random_dataset(rng, n, n_rows, max_arity=2)
        for g in structures[n]:
            diff = abs(total_score(data, g, QNML_EXACT)
                       - nml_bruteforce(data, g))
            worst = max(worst, diff)
        cases += 1
    report(4, cases == 100 and worst <= 1e-9,
           f"100 binary datasets x every tournament-component structure, "
           f"max |qnml - joint NML| {worst:.2e} (tol 1e-9)")


def test_acceptance_05_regularity_on_nested_parent_sets():
    rng = np.random.default_rng(5)
    trials, violations, worst = 0, 0, 0.0
    while trials < 200:
        n = int(rng.integers(3, 6))
        base = random_dataset(rng, n, int(rng.integers(5, 41)))
        child = int(rng.integers(n))
        others = [v for v in range(n) if v != child]
        rng.shuffle(others)
        k = int(rng.integers(0, min(3, len(others) - 1) + 1))
        small = tuple(sorted(others[:k]))
        extra = others[k]

        # make the extra parent empirically uninformative: either constant
        # or a copy of a parent already in the smaller set
        rows = base.rows.copy()
        arities = list(base.arities)
        if small and rng.random() < 0.5:
            src = small[int(rng.integers(len(small)))]
            rows[:, extra] = rows[:, src]
            arities[extra] = arities[src]
        else:
            rows[:, extra] = 0
        data = Dataset(base.names, tuple(arities), rows)
        large = tuple(sorted(small + (extra,)))
        if empirical_cond_entropy(data, child, small) > \
                empirical_cond_entropy(data, child, large) + 1e-12:
            continue
        for cfg in (QNML_EXACT, FNML_EXACT):
            gap = (local_score(data, child, large, cfg)
                   - local_score(data, child, small, cfg))
            if gap > 1e-9:
                violations += 1
            worst = max(worst, gap)
        trials += 1
    report(5, violations == 0,
           f"200 nested-parent datasets, {violations} regularity violations, "
           f"largest larger-set advantage {worst:.2e} (must be <= 1e-9)")


def test_acceptance_06_regret_growth_properties():
    # splitting a sample never reduces total regret
    super_ok = all(
        regret_exact(n1 + n2, r)
        <= regret_exact(n1, r) + regret_exact(n2, r) + 1e-9
        for r in range(2, 9)
        for n1 in range(1, 21) for n2 in range(1, 21))

    # the penalty a fresh r-fold split adds grows with the number of
    # existing parts
    def penalty(n, r, k):
        return regret_exact(n, r * k) - regret_exact(n, k)

    mono_ok = all(
        penalty(n, r, k + 1) >= penalty(n, r, k) - 1e-12
        for n in range(1, 51) for r in (2, 3) for k in range(2, 12))

    # asymptotically the added penalty matches half the added parameter
    # count times ln N
    ratios = {}
    for q, r in ((1, 2), (2, 3), (4, 2)):
        n = 10 ** 5
        ratios[(q, r)] = ((regret_exact(n, q * r) - regret_exact(n, q))
                          / (q * (r - 1) / 2 * math.log(n)))
    ratio_ok = all(abs(v - 1.0) <= 0.15 for v in ratios.values())

    shown = ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
    report(6, super_ok and mono_ok and ratio_ok,
           f"superadditivity N1,N2<=20 r<=8: {super_ok}; quotient "
           f"monotonicity k=2..12: {mono_ok}; penalty/BIC ratios {shown} "
           f"(each within 1 +- 0.15)")


def test_acceptance_07_exact_learner_matches_bruteforce():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst = 0.0
    for criterion in CRITERIA:
        cfg = ScoreConfig(criterion=criterion)
        for _ in range(50):
            data = random_dataset(rng, 4, int(rng.integers(5, 61)))
            got = learn_exact(data, cfg).total_score
            want = learn_bruteforce(data, cfg).total_score
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    report(7, worst <= 1e-9 and elapsed < 60.0,
           f"50 n=4 instances x {len(CRITERIA)} criteria vs 543-DAG "
           f"enumeration, max score gap {worst:.2e} (tol 1e-9), "
           f"{elapsed:.1f}s (< 60s)")


def test_acceptance_08_tournament_component_counts():
    want = (1, 1, 3, 13, 73, 501, 4051, 37633, 394353, 4596553)
    got = tuple(count_tournament_component_dags(n) for n in range(10))
    exhaustive_ok = all(
        sum(is_tournament_component_dag(dag_from_masks(masks))
            for masks in enumerate_dags(n)) == want[n]
        for n in range(1, 5))
    report(8, got == want and exhaustive_ok,
           f"counting formula gives {got[:6]}... matching the reference "
           f"sequence, exhaustive filter agrees for n<=4: {exhaustive_ok}")


def test_acceptance_09_shd_convergence_on_bundled_network():
    start = time.perf_counter()
    net = load_network(bundled_path("collider5.json"))
    truth = to_cpdag(net.structure)
    cfg = ScoreConfig(criterion="qnml")
    shd_by_size = {}
    for n in (100, 10000):
        vals = []
        for seed in range(50):
            res = learn_exact(sample(net, n, seed=seed), cfg)
            vals.append(cpdag_shd(to_cpdag(res.network), truth))
        shd_by_size[n] = vals
    elapsed = time.perf_counter() - start
    mean_small = float(np.mean(shd_by_size[100]))
    mean_large = float(np.mean(shd_by_size[10000]))
    zero_rate = float(np.mean(np.asarray(shd_by_size[10000]) == 0))
    report(9, mean_large < mean_small and zero_rate >= 0.80
           and elapsed < 300.0,
           f"mean SHD {mean_small:.2f} at N=100 -> {mean_large:.2f} at "
           f"N=10000 over 50 seeds, zero in {zero_rate:.0%} of seeds "
           f"(>= 80%), {elapsed:.0f}s (< 5min)")


def test_acceptance_10_small_sample_model_sizes_and_predictions():
    datasets = (bundled_path("synth4_n400.csv"),
                bundled_path("mixed6_n500.csv"),
                bundled_path("web8_n500.csv"))
    params = ExperimentSpec(kind="param-count", criteria=DEFAULT_CRITERIA,
                            repetitions=50, seed=0, datasets=datasets,
                            train_fractions=(0.1,))
    by_ds = {}
    for ds, crit, _, count in (row for row in run_param_count(params)[1:]):
        by_ds.setdefault(ds, {})[crit] = float(count)
    bic_min = all(sizes["bic"] <= min(sizes.values()) for sizes in
                  by_ds.values())

    ranks = ExperimentSpec(kind="predict-rank", criteria=DEFAULT_CRITERIA,
                           repetitions=50, seed=0, datasets=datasets,
                           train_fractions=(0.1,))
    logliks = [float(row[3]) for row in run_predict_rank(ranks)[1:]]
    finite = all(math.isfinite(v) for v in logliks)

    sizes = {ds: round(v["bic"], 2) for ds, v in by_ds.items()}
    report(10, bic_min and finite,
           f"train fraction 0.1: bic mean parameter count minimal on all "
           f"{len(by_ds)} datasets {sizes}, all {len(logliks)} mean "
           f"log-likelihoods finite: {finite}")


def _run(argv):
    return subprocess.run([sys.executable, "-m", "bnsl", *map(str, argv)],
                          capture_output=True, env=child_env())


def test_acceptance_11_cli_reruns_are_byte_identical(tmp_path):
    model = bundled_path("chain5.json")
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_dataset(sample(load_network(model), 60, seed=1), train)
    write_dataset(sample(load_network(model), 30, seed=2), test)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kind": "shd-curve", "criteria": ["qnml"], "sampleSizes": [50],
        "repetitions": 3, "networks": [model]}))

    battery = [
        ["regret", "--table1"],
        ["regret", "--n", 500, "--r", 100, "--method", "szp1"],
        ["score", "--data", train, "--network", model, "--criterion", "fnml"],
        ["learn", "--data", train, "--criterion", "qnml"],
        ["sample", "--model", model, "--n", 50, "--seed", 9],
        ["shd", "--a", model, "--b", bundled_path("collider5.json")],
        ["predict", "--train", train, "--test", test, "--criterion", "bdeu"],
        ["bench", "--spec", "regret-table"],
    ]
    stable = 0
    for argv in battery:
        a, b = _run(argv), _run(argv)
        assert a.returncode == 0, (argv, a.stderr)
        if a.stdout == b.stdout and b.returncode == 0:
            stable += 1

    # file-writing paths: learned network and experiment directory
    outs = []
    for tag in ("x", "y"):
        net_out = tmp_path / f"net_{tag}.json"
        bench_out = tmp_path / f"bench_{tag}"
        assert _run(["learn", "--data", train, "--out", net_out,
                     "--fit", "ml"]).returncode == 0
        assert _run(["bench", "--spec", spec, "--out",
                     bench_out]).returncode == 0
        manifest = json.loads((bench_out / "manifest.json").read_text())
        manifest.pop("wallTimeSeconds")  # wall time is the documented exception
        outs.append((net_out.read_bytes(),
                     (bench_out / "shd-curve.csv").read_bytes(), manifest))
    files_ok = outs[0] == outs[1]

    report(11, stable == len(battery) and files_ok,
           f"{stable}/{len(battery)} stdout reruns byte-identical, learned "
           f"network + experiment outputs identical: {files_ok}")


def test_acceptance_12_sixteen_variable_learn_time_and_table_memory():
    # a binary chain with 20 % flips, N = 1000, qNML. Measured on a 2-core
    # x86-64 VM: learn_exact 1.0-2.1 s, table tracemalloc peak 24.6 MiB,
    # the family orders of one block shape included; the bounds leave about
    # 5x and 2.6x of room
    n, n_rows = 16, 1000
    rng = np.random.default_rng(16)
    rows = np.zeros((n_rows, n), dtype=np.int64)
    rows[:, 0] = rng.integers(0, 2, n_rows)
    for j in range(1, n):
        flip = rng.random(n_rows) < 0.2
        rows[:, j] = np.where(flip, 1 - rows[:, j - 1], rows[:, j - 1])
    data = Dataset(tuple(f"V{i}" for i in range(n)), (2,) * n, rows)
    cfg = ScoreConfig(criterion="qnml")
    start = time.perf_counter()
    res = learn_exact(data, cfg)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        compute_local_scores(data, cfg)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    report(12, elapsed < 10.0 and peak < 64.0
           and res.network.arc_count() >= n - 1,
           f"n=16 binary chain, N={n_rows}, qnml: learn_exact "
           f"{elapsed:.2f}s (< 10s), table peak {peak:.1f} MiB (< 64 MiB), "
           f"{res.network.arc_count()} arcs (>= {n - 1})")
