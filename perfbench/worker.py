"""Benchmark worker: the process that does one workload's work.

Started by run.py with PYTHONPATH pointing at the checked-out sources.
Subcommands:

  warm     import bnsl and load a CSV (set-up warm-up)
  learn    load_dataset + learn_exact once, print one JSON line
  harness  a harness session: warm up, then one pass per stdin line
  cli      run the bnsl CLI in-process under the tracing shim

With --spans, the work runs under shim.Tracer and the spans are written
to that file when the process ends.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
from pathlib import Path

from shim import Tracer

CRITERIA = ("bic", "bdeu", "fnml", "qnml", "bdq")
SAMPLE_SIZES = (10, 100, 1000, 10000)
FRACTIONS = tuple(round(0.1 * k, 1) for k in range(1, 10))


def _regret_memo_size() -> int:
    """Entries in the process-wide regret caches of every method; 0 if the
    package no longer exposes them."""
    # bnsl.regret as an attribute is the regret() function, not the module
    mod = importlib.import_module("bnsl.regret")
    try:
        caches = [mod.shared_cache(m) for m in mod.METHODS]
    except AttributeError:
        return 0
    return sum(len(getattr(c, "memo", ())) for c in caches)


def _no_span(name: str = ""):
    return contextlib.nullcontext()


def _run_pass(specs, out_dir: Path) -> None:
    from bnsl.bench import run_experiment
    for spec in specs:
        run_experiment(spec, str(out_dir))


def cmd_warm(args) -> int:
    import bnsl
    bnsl.load_dataset(args.csv)
    return 0


def cmd_learn(args) -> int:
    import bnsl.dataset
    import bnsl.learner
    from bnsl.scores import ScoreConfig

    cfg = ScoreConfig(criterion=args.criterion, regret_method=args.regret)
    tracer = Tracer() if args.spans else None
    span = tracer.span if tracer else _no_span
    if tracer:
        tracer.install()
    memo_before = _regret_memo_size()
    t0 = time.perf_counter()
    with span("op"):
        with span("dataset.load"):
            data = bnsl.dataset.load_dataset(args.csv)
        t1 = time.perf_counter()
        # looked up at call time, so the traced wrapper is the one called
        result = bnsl.learner.learn_exact(data, cfg)
    t2 = time.perf_counter()
    doc = {
        "op_s": t2 - t0,
        "load_s": t1 - t0,
        "parents": [list(p) for p in result.network.parents],
        "total": result.total_score,
        "regret_misses": _regret_memo_size() - memo_before,
    }
    if tracer:
        tracer.uninstall()
        doc["trace"] = tracer.summary(0)
        tracer.dump(args.spans)
    print(json.dumps(doc))
    return 0


def harness_specs(seed: int, size: str):
    """(shd-curve spec, predict-rank spec) for a pass of the given size.

    The full pass pins every field that the package would otherwise take
    from its defaults, so a change to those defaults cannot change the
    workload.
    """
    from bnsl.bench import ExperimentSpec, bundled_path

    nets = (bundled_path("chain5.json"), bundled_path("collider5.json"))
    csvs = tuple(bundled_path(f) for f in
                 ("synth4_n400.csv", "mixed6_n500.csv", "web8_n500.csv"))
    shape = {
        "full": dict(criteria=CRITERIA, sizes=SAMPLE_SIZES, reps=10,
                     datasets=csvs, fractions=FRACTIONS),
        "warm": dict(criteria=CRITERIA, sizes=(100,), reps=1,
                     datasets=csvs, fractions=(0.5,)),
        "smoke": dict(criteria=("qnml", "bdeu"), sizes=(10, 100), reps=2,
                      datasets=csvs[:1], fractions=(0.5,)),
    }[size]
    shd = ExperimentSpec(kind="shd-curve", criteria=shape["criteria"],
                         sample_sizes=shape["sizes"],
                         repetitions=shape["reps"], seed=seed, networks=nets)
    pred = ExperimentSpec(kind="predict-rank", criteria=shape["criteria"],
                          repetitions=1, seed=seed,
                          datasets=shape["datasets"],
                          train_fractions=shape["fractions"])
    return shd, pred


def _learn_calls(shd, pred) -> int:
    return (len(shd.networks) * len(shd.sample_sizes) * shd.repetitions
            * len(shd.criteria)
            + len(pred.datasets) * len(pred.train_fractions)
            * pred.repetitions * len(pred.criteria))


def cmd_harness(args) -> int:
    out = Path(args.out)
    _run_pass(harness_specs(args.seed, "warm"), out / "warm")
    specs = harness_specs(args.seed, "smoke" if args.smoke else "full")
    learns = _learn_calls(*specs)
    tracer = Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for k, line in enumerate(sys.stdin):
        traced = line.strip() == "traced"
        tracer.op = k
        pass_dir = out / "pass"
        memo_before = _regret_memo_size()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.span("bench.pass") if traced else _no_span():
            _run_pass(specs, pass_dir)
        pass_s = time.perf_counter() - t0
        tracer.uninstall()
        doc = {"op_s": pass_s, "learns": learns,
               "regret_misses": _regret_memo_size() - memo_before,
               "csv": {s.kind: (pass_dir / f"{s.kind}.csv").read_text()
                       for s in specs}}
        if traced:
            doc["trace"] = tracer.summary(k)
        print(json.dumps(doc), flush=True)
    if args.spans and tracer.names:
        tracer.dump(args.spans)
    return 0


def cmd_cli(args) -> int:
    import bnsl.cli

    tracer = Tracer()
    tracer.install()
    memo_before = _regret_memo_size()
    with tracer.span("op"):
        code = bnsl.cli.main(args.argv)
    tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary(0)
    summary["regret_misses"] = _regret_memo_size() - memo_before
    Path(args.summary).write_text(json.dumps(summary))
    tracer.dump(args.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("warm")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_warm)
    p = sub.add_parser("learn")
    p.add_argument("--csv", required=True)
    p.add_argument("--criterion", required=True)
    p.add_argument("--regret", required=True)
    p.add_argument("--spans")
    p.set_defaults(func=cmd_learn)
    p = sub.add_parser("harness")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spans")
    p.set_defaults(func=cmd_harness)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_cli)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
