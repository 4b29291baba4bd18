"""End-to-end tests of the command-line interface.

Every test spawns a fresh interpreter, so these cover argument parsing,
exit codes and output framing rather than numerics (the library tests own
those). Expected values come from the same public API the commands wrap.
"""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from bnsl.bench import bundled_path, run_regret_table
from bnsl.dataset import load_datasets_shared, write_dataset
from bnsl.learner import learn_exact
from bnsl.model import fit_bpp, load_network, load_structure, mean_test_loglik, sample
from bnsl.regret import regret
from bnsl.scores import ScoreConfig, per_variable_scores
from bnsl.structure import DagStructure

from conftest import child_env


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "bnsl", *map(str, argv)],
                          capture_output=True, text=True, env=child_env())


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture(scope="module")
def chain5():
    return load_network(bundled_path("chain5.json"))


@pytest.fixture(scope="module")
def data_path(tmp_path_factory, chain5):
    path = tmp_path_factory.mktemp("cli") / "train.csv"
    write_dataset(sample(chain5, 100, seed=2), path)
    return str(path)


# ---------------------------------------------------------------- framing

def test_no_subcommand_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_unknown_subcommand_and_flag():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli("regret", "--n", 5, "--r", 2, "--wat").returncode == 1
    assert run_cli("learn", "--data", "x.csv", "--threads", 2).returncode == 1


def test_help_exits_zero():
    for argv in (["--help"], ["regret", "--help"], ["learn", "--help"],
                 ["bench", "--help"]):
        proc = run_cli(*argv)
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()


# ----------------------------------------------------------------- regret

def test_regret_single_value_and_default_method():
    proc = run_cli("regret", "--n", 50, "--r", 10, "--method", "exact")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "%.6f" % regret(50, 10, "exact")
    proc = run_cli("regret", "--n", 50, "--r", 10)
    assert proc.stdout.strip() == "%.6f" % regret(50, 10, "szp2")


def test_regret_table_flag_prints_reference_grid():
    proc = run_cli("regret", "--table1")
    assert proc.returncode == 0
    assert parse_csv(proc.stdout) == run_regret_table()


def test_regret_argument_validation():
    assert run_cli("regret").returncode == 1  # neither --table1 nor --n/--r
    assert run_cli("regret", "--n", 5).returncode == 1
    assert run_cli("regret", "--n", -1, "--r", 2).returncode == 1
    assert run_cli("regret", "--n", 5, "--r", 0).returncode == 1
    assert run_cli("regret", "--n", 5, "--r", 2, "--method", "x").returncode == 1


# ------------------------------------------------------------ score/learn

def test_score_matches_library(data_path, chain5):
    net_path = bundled_path("chain5.json")
    proc = run_cli("score", "--data", data_path, "--network", net_path,
                   "--criterion", "qnml")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert rows[0] == ["variable", "score"]
    assert [r[0] for r in rows[1:-1]] == list(chain5.structure.names)

    train, = load_datasets_shared([data_path])
    per = per_variable_scores(train, chain5.structure, ScoreConfig("qnml"))
    for row, want in zip(rows[1:-1], per):
        assert row[1] == "%.6f" % want
    assert rows[-1] == ["_total", "%.6f" % sum(per)]


def test_score_alpha_only_fits_bayesian_criteria(data_path):
    net = bundled_path("chain5.json")
    ok = run_cli("score", "--data", data_path, "--network", net,
                 "--criterion", "bdeu", "--alpha", 2.0)
    assert ok.returncode == 0
    bad = run_cli("score", "--data", data_path, "--network", net,
                  "--criterion", "qnml", "--alpha", 2.0)
    assert bad.returncode == 1
    for criterion, alpha in (("bdeu", "nan"), ("bdq", "inf")):
        bad = run_cli("learn", "--data", data_path, "--criterion", criterion,
                      "--alpha", alpha)
        assert bad.returncode == 2
        assert "hyperparameters" in bad.stderr
    # a tiny alpha passes the check but overflows gammaln: nan at 1e-310,
    # -inf at 1e-308; 1e-305 still scores finitely
    for command, alpha, code in (("score", "1e-310", 2), ("learn", "1e-308", 2),
                                 ("learn", "1e-305", 0)):
        extra = ("--network", net) if command == "score" else ()
        proc = run_cli(command, "--data", data_path, *extra,
                       "--criterion", "bdeu", "--alpha", alpha)
        assert proc.returncode == code
        if code:
            assert "bdeu local score" in proc.stderr
            assert "not finite" in proc.stderr


def test_score_missing_file_is_a_data_error(data_path):
    proc = run_cli("score", "--data", "no-such.csv",
                   "--network", bundled_path("chain5.json"))
    assert proc.returncode == 2
    assert "no-such.csv" in proc.stderr


def test_learn_outputs_match_library(data_path, tmp_path):
    out = tmp_path / "learned.json"
    proc = run_cli("learn", "--data", data_path, "--criterion", "qnml",
                   "--out", out, "--fit", "ml")
    assert proc.returncode == 0
    assert "arcs in" in proc.stderr

    train, = load_datasets_shared([data_path])
    res = learn_exact(train, ScoreConfig("qnml"))
    rows = parse_csv(proc.stdout)
    assert rows[0] == ["variable", "parents", "score"]
    for i, row in enumerate(rows[1:-1]):
        want = " ".join(train.names[p] for p in res.network.parents[i])
        assert row == [train.names[i], want,
                       "%.6f" % res.per_variable[i]]
    assert rows[-1] == ["_total", "", "%.6f" % res.total_score]
    # --fit ml embeds CPTs, so the file loads as a full network
    net = load_network(out)
    assert net.structure.parents == res.network.parents


def test_learn_without_fit_writes_structure_only(data_path, tmp_path):
    out = tmp_path / "skel.json"
    assert run_cli("learn", "--data", data_path, "--out", out).returncode == 0
    g, arities = load_structure(out)
    assert arities == (2, 2, 2, 2, 2)
    with pytest.raises(Exception):
        load_network(out)


def test_learn_too_many_variables_trips_the_guard(tmp_path):
    from bnsl.dataset import Dataset
    rng = np.random.default_rng(0)
    wide = Dataset(tuple(f"V{i}" for i in range(25)), (2,) * 25,
                   rng.integers(0, 2, size=(5, 25)).astype(np.int64))
    path = tmp_path / "wide.csv"
    write_dataset(wide, path)
    proc = run_cli("learn", "--data", path)
    assert proc.returncode == 3


# ------------------------------------------------------------- sample/shd

def test_sample_stdout_equals_file_output(tmp_path):
    model = bundled_path("chain5.json")
    out = tmp_path / "s.csv"
    a = run_cli("sample", "--model", model, "--n", 25, "--seed", 5)
    b = run_cli("sample", "--model", model, "--n", 25, "--seed", 5,
                "--out", out)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == out.read_text()
    assert a.stdout == run_cli("sample", "--model", model, "--n", 25,
                               "--seed", 5).stdout


def test_sample_rejects_negative_n():
    proc = run_cli("sample", "--model", bundled_path("chain5.json"),
                   "--n", -3)
    assert proc.returncode == 1


def test_sample_rejects_negative_seed():
    proc = run_cli("sample", "--model", bundled_path("chain5.json"),
                   "--n", 5, "--seed", -1)
    assert proc.returncode == 2
    assert "seed must be nonnegative" in proc.stderr


def test_sample_needs_cpts(tmp_path, data_path):
    out = tmp_path / "skel.json"
    run_cli("learn", "--data", data_path, "--out", out)
    proc = run_cli("sample", "--model", out, "--n", 5)
    assert proc.returncode == 2
    assert "cpts" in proc.stderr


def test_non_utf8_input_is_a_data_error(tmp_path):
    # a Latin-1 byte in a CSV cell, a network variable name and a spec
    # value must exit 2 with the file named, not end in a traceback
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"A,B\n\xe9,1\nx,0\n")
    model = tmp_path / "latin1.json"
    model.write_bytes(open(bundled_path("chain5.json"), "rb").read()
                      .replace(b'"A"', b'"\xc0"'))
    spec = tmp_path / "latin1_spec.json"
    spec.write_bytes(b'{"kind": "shd-curve", "criteria": ["\xe9"]}')
    for argv, path in ((("learn", "--data", csv_path), csv_path),
                       (("sample", "--model", model, "--n", 5), model),
                       (("bench", "--spec", spec), spec)):
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert f"{path}: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

def test_shd_hand_value(tmp_path):
    from bnsl.model import save_network
    chain = DagStructure(3, ((), (0,), (1,)), ("A", "B", "C"))
    collider = DagStructure(3, ((), (0, 2), ()), ("A", "B", "C"))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_network(pa, chain, (2, 2, 2))
    save_network(pb, collider, (2, 2, 2))
    proc = run_cli("shd", "--a", pa, "--b", pb)
    assert proc.returncode == 0 and proc.stdout.strip() == "2"
    proc = run_cli("shd", "--a", pa, "--b", pa)
    assert proc.stdout.strip() == "0"


def test_shd_reorders_by_variable_name(tmp_path):
    # same arc written under two variable orders still compares as equal
    from bnsl.model import save_network
    g1 = DagStructure(2, ((), (0,)), ("A", "B"))
    g2 = DagStructure(2, ((1,), ()), ("B", "A"))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_network(pa, g1, (2, 2))
    save_network(pb, g2, (2, 2))
    proc = run_cli("shd", "--a", pa, "--b", pb)
    assert proc.stdout.strip() == "0"
    save_network(pb, DagStructure(2, ((), (0,)), ("A", "C")), (2, 2))
    assert run_cli("shd", "--a", pa, "--b", pb).returncode == 2


# ---------------------------------------------------------------- predict

def test_predict_matches_library(tmp_path, chain5):
    train_p = tmp_path / "train.csv"
    test_p = tmp_path / "test.csv"
    write_dataset(sample(chain5, 80, seed=3), train_p)
    write_dataset(sample(chain5, 40, seed=4), test_p)
    proc = run_cli("predict", "--train", train_p, "--test", test_p,
                   "--criterion", "bdeu")
    assert proc.returncode == 0

    train, test = load_datasets_shared([train_p, test_p])
    res = learn_exact(train, ScoreConfig("bdeu"))
    want = mean_test_loglik(fit_bpp(train, res.network), test)
    assert proc.stdout.strip() == "%.6f" % want


# ------------------------------------------------------------------ bench

def test_bench_kind_literal_streams_csv():
    proc = run_cli("bench", "--spec", "regret-table")
    assert proc.returncode == 0
    assert parse_csv(proc.stdout) == run_regret_table()


def test_bench_spec_file_and_out_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"kind": "shd-curve", "criteria": ["qnml"], "sampleSizes": [30],\n'
        ' "repetitions": 2, "networks": ["%s"]}\n'
        % bundled_path("chain5.json"))
    out = tmp_path / "out"
    proc = run_cli("bench", "--spec", spec_path, "--out", out)
    assert proc.returncode == 0
    assert "shd-curve" in proc.stderr
    got = parse_csv((out / "shd-curve.csv").read_text())
    assert got[0] == ["network", "criterion", "n", "meanSHD", "stderr"]
    assert len(got) == 2
    assert (out / "manifest.json").exists()

    stream = run_cli("bench", "--spec", spec_path)
    assert parse_csv(stream.stdout) == got


def test_bench_rejects_unknown_spec():
    proc = run_cli("bench", "--spec", "no-such-kind")
    assert proc.returncode == 2
    assert "no-such-kind" in proc.stderr


def test_bench_bad_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    for doc in ('{"kind": "shd-curve", "wat": 1}',
                '{"repetitions": "x"}',
                '{"repetitions": 2.7}',
                '{"sampleSizes": 5}',
                '{"seeds": "a"}',
                '{"seeds": -1}',
                '{"networks": 5}',
                '{"trainFractions": ["a"]}'):
        spec_path.write_text(doc)
        assert run_cli("bench", "--spec", spec_path).returncode == 2, doc
