"""Self-tests of the benchmark: metric declarations, smoke runs, and that a
wrong answer is counted as a failure.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, refs=None):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    if refs is not None:
        argv += ["--refs", str(refs)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_declarations():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 2 <= len(WORKLOADS) <= 8


@pytest.mark.parametrize("workload", WORKLOADS + run.EXTRA_WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = result_of(bench("--workload", workload, "--smoke",
                          "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for v in res["metrics"].values():
        assert math.isfinite(v["value"]) and v["value"] > 0


def test_traced_smoke_run_reports_every_layer_metric():
    res = result_of(bench("--workload", "harness", "--smoke", "--seconds",
                          "1", "--trace", "1"))
    assert res["correct"]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["learner.calls"] > 0 and m["model.sample_calls"] > 0
    assert m["structure.cpdag_calls"] > 0 and m["bench.self_s"] > 0


@pytest.mark.parametrize("workload,ref_file,edit", [
    ("wide-qnml", "wide-qnml-smoke.json",
     lambda t: json.dumps({**json.loads(t),
                           "total": json.loads(t)["total"] + 1.0})),
    ("cli", "cli-learn.stdout", lambda t: t.replace("_total", "_sum")),
    ("harness", "harness-smoke-predict-rank.csv",
     lambda t: t.replace(",qnml,0.5,-", ",qnml,0.5,-1")),
])
def test_tampered_reference_is_counted_as_failure(tmp_path, workload,
                                                  ref_file, edit):
    refs = tmp_path / "refs"
    shutil.copytree(BENCH / "refs", refs)
    text = (refs / ref_file).read_text()
    assert edit(text) != text
    (refs / ref_file).write_text(edit(text))
    proc = bench("--workload", workload, "--smoke", "--seconds", "1",
                 refs=refs)
    res = result_of(proc)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= 1
    assert "FAIL" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "cli", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a = gen.make_learn_input("tall-fnml", 5, smoke=True)
    b = gen.make_learn_input("tall-fnml", 5, smoke=True)
    c = gen.make_learn_input("tall-fnml", 6, smoke=True)
    assert a[:2] == b[:2] and (a[2] == b[2]).all()
    assert not (a[2] == c[2]).all()
    for j, r in enumerate(a[1]):
        assert sorted(set(a[2][:, j])) == list(range(r))


def test_scipy_import_time_counts_outermost_scipy_modules_once():
    # post-order, as -X importtime prints it: children before parents
    out = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |     numpy.linalg",
        "import time:        40 |         45 |   scipy.special",
        "import time:         7 |         82 | bnsl.regret",
        "import time:         3 |          3 | scipy.stats",
    ])
    assert run.scipy_import_us(out) == 30 + 45 + 3
