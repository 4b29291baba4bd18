"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data or file error, 3 resource
guard tripped. Data goes to standard output (or ``--out`` files),
diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .bench import (KINDS, RUNNERS, default_spec, fit_for, load_spec,
                    run_experiment, run_regret_table)
from .dataset import Dataset, load_dataset, load_datasets_shared, write_dataset
from .errors import DataError, ResourceLimitError
from .learner import learn_exact
from .model import (fit_ml, load_network, load_structure, mean_test_loglik,
                    sample, save_network)
from .regret import regret
from .scores import CRITERIA, ScoreConfig, criterion, per_variable_scores
from .structure import DagStructure, shd


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # data problems, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _score_config(args) -> ScoreConfig:
    if args.alpha is not None and criterion(args.criterion).alpha is None:
        args.parser.error("--alpha only applies to the bdeu and bdq criteria")
    kwargs = {"criterion": args.criterion, "alpha": args.alpha}
    if getattr(args, "regret_method", None):
        kwargs["regret_method"] = args.regret_method
    return ScoreConfig(**kwargs)


def _align_to_network(data: Dataset, names, arities) -> Dataset:
    """Reorder dataset columns into network order, adopting its arities."""
    have = {nm: j for j, nm in enumerate(data.names)}
    missing = [nm for nm in names if nm not in have]
    if missing:
        raise DataError(f"dataset lacks network variables: "
                        f"{', '.join(missing)}")
    extra = [nm for nm in data.names if nm not in set(names)]
    if extra:
        raise DataError(f"dataset has variables unknown to the network: "
                        f"{', '.join(extra)}")
    for nm, r in zip(names, arities):
        if data.arities[have[nm]] > r:
            raise DataError(
                f"column {nm} has {data.arities[have[nm]]} observed values "
                f"but the network declares arity {r}")
    perm = [have[nm] for nm in names]
    return Dataset(tuple(names), tuple(arities), data.rows[:, perm])


def _cmd_regret(args) -> int:
    if args.table1:
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            run_regret_table(None))
        return 0
    if args.n is None or args.r is None:
        args.parser.error("--n and --r are required unless --table1 is given")
    if args.n < 0 or args.r < 1:
        args.parser.error("need n >= 0 and r >= 1")
    print("%.6f" % regret(args.n, args.r, args.method))
    return 0


def _cmd_score(args) -> int:
    g, arities = load_structure(args.network)
    data = _align_to_network(load_dataset(args.data), g.names, arities)
    cfg = _score_config(args)
    per = per_variable_scores(data, g, cfg)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["variable", "score"])
    for name, value in zip(g.names, per):
        writer.writerow([name, "%.6f" % value])
    writer.writerow(["_total", "%.6f" % sum(per)])
    return 0


def _cmd_learn(args) -> int:
    data = load_dataset(args.data)
    cfg = _score_config(args)
    result = learn_exact(data, cfg, max_parents=args.max_parents)
    g = result.network
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["variable", "parents", "score"])
    for i, name in enumerate(data.names):
        parent_names = " ".join(data.names[p] for p in g.parents[i])
        writer.writerow([name, parent_names, "%.6f" % result.per_variable[i]])
    writer.writerow(["_total", "", "%.6f" % result.total_score])
    print(f"learned {g.arc_count()} arcs in {result.elapsed:.3f}s",
          file=sys.stderr)
    if args.out:
        cpts = fit_ml(data, g).cpts if args.fit == "ml" else None
        save_network(args.out, g, data.arities, cpts)
    return 0


def _cmd_sample(args) -> int:
    if args.n < 0:
        args.parser.error("--n must be nonnegative")
    net = load_network(args.model)
    data = sample(net, args.n, seed=args.seed)
    write_dataset(data, args.out if args.out else sys.stdout)
    return 0


def _cmd_shd(args) -> int:
    ga, _ = load_structure(args.a)
    gb, _ = load_structure(args.b)
    if set(ga.names) != set(gb.names):
        raise DataError("the two networks name different variable sets")
    pos = {nm: i for i, nm in enumerate(ga.names)}
    parents = [()] * ga.n
    for j, nm in enumerate(gb.names):
        parents[pos[nm]] = tuple(sorted(pos[gb.names[p]]
                                        for p in gb.parents[j]))
    gb_aligned = DagStructure(ga.n, tuple(parents), ga.names)
    print(shd(ga, gb_aligned))
    return 0


def _cmd_predict(args) -> int:
    train, test = load_datasets_shared([args.train, args.test])
    cfg = _score_config(args)
    result = learn_exact(train, cfg)
    net = fit_for(args.criterion, args.params)(train, result.network)
    print("%.6f" % mean_test_loglik(net, test))
    return 0


def _cmd_bench(args) -> int:
    if os.path.exists(args.spec):
        spec = load_spec(args.spec)
    elif args.spec in KINDS:
        spec = default_spec(args.spec)
    else:
        raise DataError(f"{args.spec!r} is neither a spec file nor one of "
                        f"the kinds {', '.join(KINDS)}")
    if args.out:
        start = time.perf_counter()
        manifest = run_experiment(spec, args.out)
        print(f"{spec.kind}: {manifest['rows']} rows in "
              f"{time.perf_counter() - start:.1f}s -> {args.out}",
              file=sys.stderr)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            RUNNERS[spec.kind](spec))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bnsl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("regret",
                       help="multinomial regret value or the full table")
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--r", type=int, help="number of categories")
    p.add_argument("--method", default="szp2",
                   choices=["exact", "szp1", "szp2"],
                   help="exact sum, small-alphabet expansion, or "
                        "all-range approximation")
    p.add_argument("--table1", action="store_true",
                   help="print the full reference grid as CSV")
    p.set_defaults(func=_cmd_regret, parser=p)

    p = sub.add_parser("score",
                       help="score a fixed network on a dataset")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--network", required=True, help="network JSON")
    p.add_argument("--criterion", default="qnml", choices=list(CRITERIA))
    p.add_argument("--alpha", type=float,
                   help="prior weight for bdeu or bdq")
    p.add_argument("--regret", dest="regret_method",
                   choices=["exact", "szp2"],
                   help="regret method for fnml/qnml (default szp2)")
    p.set_defaults(func=_cmd_score, parser=p)

    p = sub.add_parser("learn",
                       help="find the provably best network")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--criterion", default="qnml", choices=list(CRITERIA))
    p.add_argument("--alpha", type=float,
                   help="prior weight for bdeu or bdq")
    p.add_argument("--max-parents", type=int, default=None,
                   help="cap on parent-set size")
    p.add_argument("--regret", dest="regret_method",
                   choices=["exact", "szp2"],
                   help="regret method for fnml/qnml (default szp2)")
    p.add_argument("--out", help="write the learned network JSON here")
    p.add_argument("--fit", choices=["ml"],
                   help="also fit CPTs into --out (maximum likelihood)")
    p.set_defaults(func=_cmd_learn, parser=p)

    p = sub.add_parser("sample",
                       help="draw rows from a network with CPTs")
    p.add_argument("--model", required=True, help="network JSON with cpts")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default: standard output)")
    p.set_defaults(func=_cmd_sample, parser=p)

    p = sub.add_parser("shd",
                       help="structural Hamming distance between two networks")
    p.add_argument("--a", required=True, help="network JSON")
    p.add_argument("--b", required=True, help="network JSON")
    p.set_defaults(func=_cmd_shd, parser=p)

    p = sub.add_parser("predict",
                       help="learn on one dataset, report log-loss on another")
    p.add_argument("--train", required=True, help="training CSV")
    p.add_argument("--test", required=True, help="held-out CSV")
    p.add_argument("--criterion", default="qnml", choices=list(CRITERIA))
    p.add_argument("--alpha", type=float,
                   help="prior weight for bdeu or bdq")
    p.add_argument("--params", choices=["snml", "bpp", "ml"],
                   help="parameter rule (default: bpp for bdeu, else snml)")
    p.set_defaults(func=_cmd_predict, parser=p)

    p = sub.add_parser("bench",
                       help="run an experiment spec or a named default")
    p.add_argument("--spec", required=True,
                   help="spec JSON path, or one of: " + ", ".join(KINDS))
    p.add_argument("--out", help="output directory for CSV and manifest "
                                 "(default: CSV to standard output)")
    p.set_defaults(func=_cmd_bench, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_parents", None) is not None and args.max_parents < 0:
        args.parser.error("--max-parents must be nonnegative")
    try:
        return args.func(args)
    except DataError as exc:
        print(f"bnsl {args.command}: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"bnsl {args.command}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"bnsl {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
