#!/usr/bin/env python3
"""bnsl benchmark: closed-loop workloads with correctness checks.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--refs DIR]
    python3 perfbench/run.py --workload NAME --write-refs [--smoke]

One client drives one worker process at a time. With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced operations and reports the per-layer
metrics. A summary goes to standard error, a result file with the run
manifest to perfbench/out/, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gen

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFS = BENCH_DIR / "refs"
WORKER = str(BENCH_DIR / "worker.py")
PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

DEFAULT_SEED = 0
SETUP_ROUNDS = 5
IMPORT_PROBES = 3
# every child is killed at this many seconds into the run
RUN_DEADLINE_S = 165.0
WEB8 = SRC / "bnsl" / "data" / "web8_n500.csv"
CLI_STDERR = re.compile(r"learned (\d+) arcs in ([0-9.]+)s")
# Runnable by name but not declared in BENCHMARK.json: on a shared 2-core
# machine their run-to-run spread came too close to the largest allowed bound.
EXTRA_WORKLOADS = ["wide-qnml", "tall-fnml"]


class BenchError(Exception):
    """The benchmark cannot run here (set-up failed, sources missing)."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- children

def _reap(proc: subprocess.Popen, deadline: float) -> tuple[int, float]:
    """Wait for proc, killing it at the deadline; (exit code, peak RSS MB).

    os.wait4 gives the rusage of this one child, so its peak RSS is not
    mixed up with any other process the benchmark started.
    """
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, deadline: float) -> dict:
    """Run argv to completion from the checkout root."""
    with open(OUT / "child.out", "w+b") as out, \
            open(OUT / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV,
                                cwd=ROOT)
        code, rss_mb = _reap(proc, deadline)
        wall_s = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return {"code": code, "stdout": out.read().decode(),
                "stderr": err.read().decode(), "wall_s": wall_s,
                "rss_mb": rss_mb}


def last_json_line(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# --------------------------------------------------------------- workloads

class Workload:
    """One workload: set-up rounds, then operations checked one by one."""

    input_path: Path | None = None

    def __init__(self, name: str, seed: int, smoke: bool, refs: Path,
                 deadline: float):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.refs, self.deadline = refs, deadline
        self.first = None

    def ref_path(self, suffix: str) -> Path:
        tag = "-smoke" if self.smoke else ""
        return self.refs / f"{self.name}{tag}{suffix}"

    def setup(self, rounds: int) -> list[float]:
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            self.setup_round()
            times.append(time.perf_counter() - t0)
        return times

    def spans_path(self, k: int) -> str:
        return str(OUT / "spans" / f"{self.name}-seed{self.seed}-op{k}.json")

    def close(self) -> None:
        pass


class LearnWorkload(Workload):
    """load_dataset + learn_exact in a fresh worker per operation."""

    def __init__(self, name, seed, smoke, refs, deadline, criterion, regret):
        super().__init__(name, seed, smoke, refs, deadline)
        from bnsl.scores import ScoreConfig
        self.cfg = ScoreConfig(criterion=criterion, regret_method=regret)
        self.input_path = OUT / "inputs" / f"{name}-seed{seed}.csv"
        self.oracle: dict[tuple, float] = {}

    def setup_round(self) -> None:
        self.names, self.arities, self.rows = gen.make_learn_input(
            self.name, self.seed, self.smoke)
        gen.write_csv(self.input_path, self.names, self.rows)
        res = run_child([PY, WORKER, "warm", "--csv", str(self.input_path)],
                        self.deadline)
        if res["code"] != 0:
            raise BenchError(f"warm-up worker failed:\n{res['stderr']}")

    def op(self, traced: bool, k: int) -> dict:
        argv = [PY, WORKER, "learn", "--csv", str(self.input_path),
                "--criterion", self.cfg.criterion,
                "--regret", self.cfg.regret_method]
        if traced:
            argv += ["--spans", self.spans_path(k)]
        res = run_child(argv, self.deadline)
        if res["code"] != 0:
            return {"error": f"worker exit {res['code']}: "
                             f"{res['stderr'][-500:]}"}
        doc = last_json_line(res["stdout"])
        doc.update(wall_s=res["wall_s"], rss_mb=res["rss_mb"], learns=1)
        return doc

    def _oracle_total(self, parents) -> float:
        """bnsl.total_score of the network, with a fresh regret cache."""
        from bnsl import Dataset, DagStructure, RegretCache, total_score
        key = tuple(tuple(p) for p in parents)
        if key not in self.oracle:
            data = Dataset(self.names, self.arities, self.rows)
            g = DagStructure(len(key), key, self.names)
            self.oracle[key] = total_score(
                data, g, self.cfg, RegretCache(self.cfg.regret_method))
        return self.oracle[key]

    def check(self, doc: dict, ref: dict | None) -> list[str]:
        bad = []
        oracle = self._oracle_total(doc["parents"])
        if rel_err(doc["total"], oracle) > 1e-9:
            bad.append(f"total {doc['total']!r} != total_score {oracle!r}")
        if ref is not None:
            if doc["parents"] != ref["parents"]:
                bad.append("parent sets differ from the reference")
            if abs(doc["total"] - ref["total"]) > 1e-6:
                bad.append(f"total {doc['total']!r} != reference "
                           f"{ref['total']!r}")
        return bad

    def same_answer(self, a: dict, b: dict) -> bool:
        return a["parents"] == b["parents"] and a["total"] == b["total"]

    def load_ref(self):
        path = self.ref_path(".json")
        ref = json.loads(path.read_text()) if path.exists() else None
        return ref if ref and ref["seed"] == self.seed else None

    def ref_files(self, doc: dict) -> dict:
        ref = {"seed": self.seed, "parents": doc["parents"],
               "total": doc["total"]}
        return {self.ref_path(".json"): json.dumps(ref, indent=1) + "\n"}


class HarnessWorkload(Workload):
    """Passes of the package's experiment harness in one warm worker."""

    KINDS = ("shd-curve", "predict-rank")

    def __init__(self, *args, traced_run: bool = False):
        super().__init__(*args)
        self.traced_run = traced_run
        self.proc = None
        self.rss_mb = None

    def _start(self):
        argv = [PY, WORKER, "harness", "--seed", str(self.seed),
                "--out", str(OUT / "harness")]
        if self.smoke:
            argv.append("--smoke")
        if self.traced_run:
            argv += ["--spans", str(OUT / "spans" /
                                    f"harness-seed{self.seed}.json")]
        self.err = open(OUT / "harness.err", "w+b")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     env=ENV, cwd=ROOT, text=True)
        self._reply()

    def _reply(self) -> dict:
        timer = threading.Timer(
            max(self.deadline - time.monotonic(), 0.0), self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            self.err.seek(0)
            raise BenchError("harness worker stopped:\n"
                             + self.err.read().decode()[-2000:])
        return json.loads(line)

    def setup(self, rounds: int) -> list[float]:
        times = []
        for _ in range(rounds):
            self.close()
            t0 = time.perf_counter()
            self._start()
            times.append(time.perf_counter() - t0)
        return times

    def op(self, traced: bool, k: int) -> dict:
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write("traced\n" if traced else "untraced\n")
            self.proc.stdin.flush()
            doc = self._reply()
        except (BenchError, OSError) as exc:
            return {"error": str(exc)}
        doc["wall_s"] = time.perf_counter() - t0
        return doc

    def close(self) -> None:
        if self.proc is None:
            return
        self.proc.stdin.close()
        _, self.rss_mb = _reap(self.proc, self.deadline)
        self.proc.stdout.close()
        self.err.close()
        self.proc = None

    def check(self, doc: dict, ref: dict | None) -> list[str]:
        bad = []
        shd = list(csv.reader(io.StringIO(doc["csv"]["shd-curve"])))
        pred = list(csv.reader(io.StringIO(doc["csv"]["predict-rank"])))
        if shd[0] != ["network", "criterion", "n", "meanSHD", "stderr"]:
            bad.append("shd-curve header changed")
        if pred[0] != ["dataset", "criterion", "fraction", "meanLogLik",
                       "rank"]:
            bad.append("predict-rank header changed")
        for row in shd[1:]:
            if not 0.0 <= float(row[3]) <= 20.0:
                bad.append(f"shd-curve meanSHD out of range: {row}")
        n_crit = len({row[1] for row in pred[1:]})
        for row in pred[1:]:
            if not (float(row[3]) <= 0.0 and 1.0 <= float(row[4]) <= n_crit):
                bad.append(f"predict-rank row out of range: {row}")
        if ref is None:
            return bad
        if doc["csv"]["shd-curve"] != ref["shd-curve"]:
            bad.append("shd-curve CSV differs from the reference")
        want = list(csv.reader(io.StringIO(ref["predict-rank"])))
        if len(want) != len(pred):
            bad.append("predict-rank row count differs from the reference")
        for got_row, want_row in zip(pred[1:], want[1:]):
            # dataset, criterion, fraction exact; loglik and rank to 1e-9
            if got_row[:3] != want_row[:3] or any(
                    rel_err(float(g), float(w)) > 1e-9
                    for g, w in zip(got_row[3:], want_row[3:])):
                bad.append(f"predict-rank row {got_row} != {want_row}")
        return bad

    def same_answer(self, a: dict, b: dict) -> bool:
        return a["csv"] == b["csv"]

    def load_ref(self):
        paths = {k: self.ref_path(f"-{k}.csv") for k in self.KINDS}
        if not all(p.exists() for p in paths.values()):
            return None
        seed = int(self.ref_path("-seed.txt").read_text())
        return ({k: p.read_text() for k, p in paths.items()}
                if seed == self.seed else None)

    def ref_files(self, doc: dict) -> dict:
        files = {self.ref_path(f"-{k}.csv"): doc["csv"][k]
                 for k in self.KINDS}
        files[self.ref_path("-seed.txt")] = f"{self.seed}\n"
        return files


class CliWorkload(Workload):
    """`python -m bnsl learn` on the bundled web8 CSV, rows shuffled by seed.

    Row order changes neither the counts nor the category coding, so the
    CLI's standard output must be byte-identical for every seed.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.input_path = OUT / "inputs" / f"cli-seed{self.seed}.csv"

    def setup_round(self) -> None:
        self.input_path.write_text(gen.permute_csv(str(WEB8), self.seed))
        res = run_child([PY, "-m", "bnsl", "learn", "--data",
                         str(self.input_path)], self.deadline)
        if res["code"] != 0:
            raise BenchError(f"warm-up CLI run failed:\n{res['stderr']}")

    def op(self, traced: bool, k: int) -> dict:
        learn = ["learn", "--data", str(self.input_path)]
        if traced:
            summary = OUT / "cli-summary.json"
            res = run_child([PY, WORKER, "cli", "--spans", self.spans_path(k),
                             "--summary", str(summary), "--"] + learn,
                            self.deadline)
        else:
            res = run_child([PY, "-m", "bnsl"] + learn, self.deadline)
        doc = {"code": res["code"], "stdout": res["stdout"],
               "stderr": res["stderr"], "op_s": res["wall_s"],
               "wall_s": res["wall_s"], "rss_mb": res["rss_mb"], "learns": 1}
        m = CLI_STDERR.search(res["stderr"])
        if m:
            doc["cli_learn_s"] = float(m.group(2))
        if traced and res["code"] == 0:
            trace = json.loads(summary.read_text())
            doc["regret_misses"] = trace.pop("regret_misses")
            doc["trace"] = trace
        return doc

    def check(self, doc: dict, ref: dict | None) -> list[str]:
        bad = []
        if doc["code"] != 0:
            bad.append(f"exit code {doc['code']}: {doc['stderr'][-500:]}")
        if not CLI_STDERR.search(doc["stderr"]):
            bad.append(f"unexpected stderr {doc['stderr'][-200:]!r}")
        if ref is not None and doc["stdout"] != ref["stdout"]:
            bad.append("stdout differs from the reference")
        return bad

    def same_answer(self, a: dict, b: dict) -> bool:
        return a["stdout"] == b["stdout"]

    def load_ref(self):
        # the expected output does not depend on the seed
        path = self.refs / "cli-learn.stdout"
        return {"stdout": path.read_text()} if path.exists() else None

    def ref_files(self, doc: dict) -> dict:
        return {self.refs / "cli-learn.stdout": doc["stdout"]}


def make_workload(name, seed, smoke, refs, deadline, traced_run) -> Workload:
    args = (name, seed, smoke, refs, deadline)
    if name == "wide-qnml":
        return LearnWorkload(*args, criterion="qnml", regret="szp2")
    if name == "tall-fnml":
        return LearnWorkload(*args, criterion="fnml", regret="exact")
    if name == "harness":
        return HarnessWorkload(*args, traced_run=traced_run)
    return CliWorkload(*args)


# ---------------------------------------------------------------- metrics

def pct(values, p: int) -> float:
    """p-th percentile, interpolating between closest ranks."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(ops: list[dict], setup_times: list[float],
               w: Workload) -> dict:
    wall_ms = [o["wall_s"] * 1000.0 for o in ops]
    rss = [o["rss_mb"] for o in ops if "rss_mb" in o] or [w.rss_mb]
    return {
        "learn_s": statistics.median(o["op_s"] for o in ops),
        "peak_rss_mb": statistics.median(rss),
        "harness_learns_per_s": statistics.median(
            o["learns"] / o["wall_s"] for o in ops),
        "cli_ms.p50": pct(wall_ms, 50),
        "cli_ms.p85": pct(wall_ms, 85),
        "setup_s": statistics.median(setup_times),
    }


def scipy_import_us(importtime: str) -> int:
    """Cumulative microseconds of the outermost scipy imports in
    `-X importtime` output."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        head = parts[0].split(":")[-1].strip()
        if len(parts) == 3 and head.isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            rows.append((depth, int(parts[1]), name.strip()))
    total, inside = 0, None
    # importtime lists children before parents; reversed, each subtree
    # follows its root, so nested scipy modules are skipped
    for depth, cumulative, name in reversed(rows):
        if inside is not None and depth > inside:
            continue
        inside = None
        if name == "scipy" or name.startswith("scipy."):
            total += cumulative
            inside = depth
    return total


def import_probes(deadline: float) -> dict:
    """Interpreter start, `import bnsl` on top of it, and the scipy part of
    that import by `-X importtime`."""
    def wall_ms(code):
        return 1000.0 * statistics.median(
            run_child([PY, "-c", code], deadline)["wall_s"]
            for _ in range(IMPORT_PROBES))
    interp = wall_ms("pass")
    with_bnsl = wall_ms("import bnsl")
    res = run_child([PY, "-X", "importtime", "-c", "import bnsl"], deadline)
    return {"import.interp_ms": interp,
            "import.bnsl_ms": with_bnsl - interp,
            "import.scipy_ms": scipy_import_us(res["stderr"]) / 1000.0}


def per_layer(ops: list[dict], w: Workload, probes: dict) -> dict:
    traced = [o for o in ops if "trace" in o]
    plain = [o for o in ops if "trace" not in o]

    def med(f):
        return statistics.median(f(o) for o in traced)

    def span(name, key):
        return med(lambda o: o["trace"]["spans"].get(name, {}).get(key, 0))

    def count(key):
        return med(lambda o: o["trace"]["counters"].get(key, 0))

    m = dict(probes)
    cli_learn = [o["cli_learn_s"] for o in plain if "cli_learn_s" in o]
    m["cli.learn_s"] = statistics.median(cli_learn) if cli_learn else 0.0
    m["cli.rest_ms"] = (
        statistics.median(o["wall_s"] for o in plain) * 1000.0
        - probes["import.interp_ms"] - probes["import.bnsl_ms"]
        - m["cli.learn_s"] * 1000.0) if cli_learn else 0.0
    loads = [o["load_s"] for o in plain if "load_s" in o]
    m["dataset.load_s"] = (statistics.median(loads) if loads
                           else span("dataset.load", "total_s"))
    size_mb = (w.input_path.stat().st_size / 1e6 if w.input_path else 0.0)
    m["dataset.load_mb_per_s"] = (size_mb / m["dataset.load_s"]
                                  if m["dataset.load_s"] else 0.0)
    m["dataset.contingency_calls"] = span("dataset.contingency", "calls")
    m["dataset.contingency_s"] = span("dataset.contingency", "total_s")
    m["dataset.rows_scanned"] = count("dataset.rows_scanned")
    m["scores.table_s"] = span("scores.table", "total_s")
    m["scores.families"] = count("scores.families")
    m["scores.self_s"] = span("scores.table", "self_s")
    m["scores.us_per_family"] = (1e6 * m["scores.table_s"]
                                 / m["scores.families"]
                                 if m["scores.families"] else 0.0)
    m["regret.get_calls"] = span("regret.get", "calls")
    m["regret.get_s"] = span("regret.get", "total_s")
    m["regret.misses"] = med(lambda o: o.get("regret_misses", 0))
    m["regret.hit_ratio"] = (1.0 - m["regret.misses"] / m["regret.get_calls"]
                             if m["regret.get_calls"] else 0.0)
    m["learner.learn_s"] = span("learner.learn", "total_s")
    m["learner.search_s"] = span("learner.learn", "self_s")
    m["learner.calls"] = span("learner.learn", "calls")
    for part in ("sample", "fit", "predict"):
        m[f"model.{part}_s"] = span(f"model.{part}", "total_s")
        m[f"model.{part}_calls"] = span(f"model.{part}", "calls")
    m["structure.cpdag_s"] = span("structure.cpdag", "total_s")
    m["structure.cpdag_calls"] = span("structure.cpdag", "calls")
    m["bench.self_s"] = span("bench.pass", "self_s")
    m["trace.overhead_frac"] = (
        statistics.median(o["op_s"] for o in traced)
        / statistics.median(o["op_s"] for o in plain) - 1.0)
    return m


def layer_table(ops: list[dict], m: dict) -> str:
    """Markdown table of per-layer self time per traced operation."""
    traced = [o for o in ops if "trace" in o]
    op_s = statistics.mean(o["op_s"] for o in traced)
    layers: dict[str, list[float]] = {}
    for o in traced:
        for name, row in o["trace"]["spans"].items():
            acc = layers.setdefault(name.split(".")[0], [0.0, 0.0])
            acc[0] += row["calls"] / len(traced)
            acc[1] += row["self_s"] / len(traced)
    lines = ["| layer | calls/op | self s/op | share of op |",
             "|---|---:|---:|---:|"]
    for layer, (calls, self_s) in sorted(layers.items(),
                                         key=lambda kv: -kv[1][1]):
        lines.append(f"| {layer} | {calls:.0f} | {self_s:.4f} | "
                     f"{self_s / op_s:.1%} |")
    lines.append(f"| (traced op) | | {op_s:.4f} | 100.0% |")
    start_ms = m["import.interp_ms"] + m["import.bnsl_ms"]
    wall_ms = 1000.0 * statistics.median(o["wall_s"] for o in ops
                                         if "trace" not in o)
    lines += ["", f"import.interp_ms {m['import.interp_ms']:.1f}, "
                  f"import.bnsl_ms {m['import.bnsl_ms']:.1f}, "
                  f"import.scipy_ms {m['import.scipy_ms']:.1f}; interpreter "
                  f"+ import bnsl = {start_ms / wall_ms:.1%} of the median "
                  f"untraced operation as the client sees it "
                  f"({wall_ms:.1f} ms)",
              f"trace.overhead_frac {m['trace.overhead_frac']:.4f}"]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- manifest

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        res = subprocess.run(["git", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout if res.returncode == 0 else None


def manifest(seed: int, workload: str, trace: int) -> dict:
    import scipy
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit.strip() if commit else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "loadavg_1m_start": os.getloadavg()[0],
        "warnings": [],
    }


def _check_load(man: dict, key: str) -> None:
    load = man[key]
    if load > (man["nproc"] or 1):
        msg = (f"{key} {load:.2f} exceeds nproc {man['nproc']}; "
               "timings may be inflated")
        man["warnings"].append(msg)
        print(f"warning: {msg}", file=sys.stderr)


# --------------------------------------------------------------------- run

def measure(w: Workload, args, ref) -> tuple[list, list, int]:
    """Closed loop: operations back to back for args.seconds (traced runs
    alternate untraced and traced ones). Returns (answered operations,
    (op index, reason) failures, operations attempted)."""
    ops, failures = [], []
    t_end = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        try:
            doc = w.op(traced, k)
            bad = [doc["error"]] if "error" in doc else w.check(doc, ref)
        except Exception as exc:  # a malformed answer fails this op only
            doc = {"error": repr(exc)}
            bad = [f"unreadable answer: {exc!r}"]
        if "error" not in doc:
            if w.first is None:
                w.first = doc
            elif not w.same_answer(doc, w.first):
                bad.append("answer differs from the run's first answer")
            ops.append(doc)
        failures += [(k, b) for b in bad]
        k += 1
        if args.write_refs:
            break
        done = time.perf_counter() >= t_end and (not args.trace or k >= 2)
        if done or time.monotonic() > w.deadline - 15.0:
            break
    return ops, failures, k


def run(args) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    bench = spec()
    man = manifest(args.seed, args.workload, args.trace)
    _check_load(man, "loadavg_1m_start")
    for sub in ("inputs", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    w = make_workload(args.workload, args.seed, args.smoke, args.refs,
                      deadline, bool(args.trace))
    try:
        setup_times = w.setup(1 if args.write_refs else SETUP_ROUNDS)
        ref = None if args.write_refs else w.load_ref()
        ops, failures, attempted = measure(w, args, ref)
        probes = import_probes(deadline) if args.trace else None
    finally:
        w.close()
    failed = len({op for op, _ in failures})
    for op, why in failures:
        print(f"FAIL {args.workload} seed {args.seed} op {op}: {why}",
              file=sys.stderr)

    if args.write_refs:
        if failed:
            return 1
        for path, text in w.ref_files(ops[0]).items():
            path.write_text(text)
            print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
        return 0
    kinds = {"trace" in o for o in ops}
    if not ops or (args.trace and kinds != {True, False}):
        print("too few operations completed to report metrics",
              file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(ops, w, probes)
        declared = bench["per_layer"]
        table = layer_table(ops, values)
        report = OUT / f"trace-{args.workload}-seed{args.seed}.md"
        report.write_text(f"# {args.workload}, seed {args.seed}\n\n{table}")
        print(table, file=sys.stderr)
    else:
        values = end_to_end(ops, setup_times, w)
        declared = bench["end_to_end"]
    if set(values) != {d["name"] for d in declared}:
        raise BenchError("computed metrics differ from BENCHMARK.json")
    metrics = {d["name"]: {"value": float(values[d["name"]]),
                           "unit": d["unit"]} for d in declared}

    man["loadavg_1m_end"] = os.getloadavg()[0]
    _check_load(man, "loadavg_1m_end")
    fail_frac = failed / attempted
    print(f"{args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed", file=sys.stderr)
    for d in declared:
        print(f"  {d['name']:<26} {values[d['name']]:>14.6g} "
              f"{d['unit']:<6} ({d['better']} is better)", file=sys.stderr)
    print(f"  {'fail_frac':<26} {fail_frac:>14.6g} {'ratio':<6} "
          "(lower is better)", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"manifest": man, **result, "fail_frac": fail_frac,
              "failures": [f"op {op}: {why}" for op, why in failures],
              "setup_rounds_s": setup_times,
              "ops": [{key: v for key, v in o.items()
                       if key not in ("csv", "stdout", "trace")}
                      for o in ops]}
    if args.trace:
        record["traces"] = [o["trace"] for o in ops if "trace" in o]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    workloads = [w["name"] for w in spec()["workloads"]] + EXTRA_WORKLOADS
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--refs", type=Path, default=REFS,
                        help="directory of pinned reference outputs")
    parser.add_argument("--write-refs", action="store_true",
                        help="run once at the default seed and rewrite the "
                             "references from this commit")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.write_refs:
        args.seed, args.trace = DEFAULT_SEED, 0
        args.refs.mkdir(parents=True, exist_ok=True)
    if not (SRC / "bnsl" / "__init__.py").is_file():
        print(f"run.py: no bnsl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
