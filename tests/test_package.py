"""The package's export list and import hygiene."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import bnsl

from conftest import child_env


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from bnsl import *", namespace)
    assert len(set(bnsl.__all__)) == len(bnsl.__all__)
    for name in bnsl.__all__:
        assert namespace[name] is getattr(bnsl, name)


def _unused_imports(path):
    """Names bound by a module's top-level imports that the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_top_level_imports():
    # __init__.py imports exist to re-export names, so it is left out
    root = Path(__file__).resolve().parent
    files = ([p for p in sorted((root.parent / "src" / "bnsl").glob("*.py"))
              if p.name != "__init__.py"] + sorted(root.glob("*.py"))
             + sorted((root.parent / "scripts").glob("*.py")))
    assert files
    assert [hit for p in files for hit in _unused_imports(p)] == []


# Runs each command in one fresh interpreter, in order, and records its exit
# code and whether numpy.ma was loaded once it returned. scipy is blocked
# before bnsl is imported, so any scipy import fails the command that makes
# it. Experiments write into the directory given as the argument.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
import bnsl
def loaded():
    return "numpy.ma" in sys.modules
seen = {"import bnsl": [0, loaded()]}
from bnsl.bench import ExperimentSpec, bundled_path, run_experiment
from bnsl.cli import main
csv, net = bundled_path("web8_n500.csv"), bundled_path("web8.json")
loglik = [bnsl.ScoreConfig(criterion=c) for c in ("bic", "fnml", "qnml")]
bnsl.learn_criteria(bnsl.load_dataset(csv), loglik)
seen["learn_criteria bic fnml qnml"] = [0, loaded()]
data = bnsl.load_dataset(csv)
bnsl.learn_datasets((bnsl.Dataset(data.names, data.arities, data.rows[:k])
                     for k in (50, 1, 500)), loglik)
seen["learn_datasets bic fnml qnml"] = [0, loaded()]
dirichlet = [bnsl.ScoreConfig(criterion=c, alpha=a)
             for c in ("bdeu", "bdq") for a in (1.0, 0.5, 7.3)]
bnsl.learn_datasets((bnsl.Dataset(data.names, data.arities, data.rows[:k])
                     for k in (50, 1, 500)), dirichlet)
seen["learn_datasets bdeu bdq"] = [0, loaded()]
small = dict(criteria=bnsl.CRITERIA, repetitions=2, seed=3)
versions = {}
for spec in (ExperimentSpec(kind="shd-curve", sample_sizes=(10, 100),
                            networks=(bundled_path("chain5.json"),), **small),
             ExperimentSpec(kind="predict-rank", train_fractions=(0.3, 0.6),
                            datasets=(csv,), **small),
             ExperimentSpec(kind="param-count", train_fractions=(0.3, 0.6),
                            datasets=(csv,), **small),
             ExperimentSpec(kind="regret-table")):
    versions[spec.kind] = run_experiment(spec, sys.argv[1])["versions"]
    seen[spec.kind] = [0, loaded()]
learn = ["learn", "--data", csv, "--criterion"]
runs = {"learn bic": learn + ["bic"], "learn fnml": learn + ["fnml"],
        "learn qnml": learn + ["qnml"],
        "score": ["score", "--data", csv, "--network", net],
        "sample": ["sample", "--model", net, "--n", "20"],
        "shd": ["shd", "--a", net, "--b", net],
        "predict": ["predict", "--train", csv, "--test", csv],
        "bench": ["bench", "--spec", "regret-table"],
        "learn bdeu": learn + ["bdeu"], "learn bdq": learn + ["bdq"],
        "learn fnml exact": learn + ["fnml", "--regret", "exact"],
        "regret exact": ["regret", "--n", "5000", "--r", "10", "--method",
                         "exact"],
        "regret table": ["regret", "--table1"]}
for name, argv in runs.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    seen[name] = [code, loaded()]
print(json.dumps({"seen": seen, "versions": versions}))
"""


def test_default_learn_path_does_not_load_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy blocked, every learn
    # under every criterion and regret method, a batch of configs on one
    # dataset or several, every CLI command and every experiment kind runs
    # to exit 0, and no manifest lists scipy. Nor does any of them load
    # numpy.ma, which numpy's np.unique imports
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          capture_output=True, text=True, check=True,
                          env=child_env())
    probe = json.loads(proc.stdout.splitlines()[-1])
    seen = probe["seen"]
    assert {name: code for name, (code, _) in seen.items()} == dict.fromkeys(
        seen, 0)
    assert [name for name, (_, loaded) in seen.items() if loaded] == []
    assert set(probe["versions"]) == {"shd-curve", "predict-rank",
                                      "param-count", "regret-table"}
    for kind in probe["versions"]:
        assert set(probe["versions"][kind]) == {"bnsl", "python", "numpy"}
