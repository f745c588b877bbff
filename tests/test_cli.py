import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
import survtree.cli
import survtree.data
from survtree import ColumnSpec, DataError, Schema, SimConfig, dataset_to_csv, load_csv, simulate_cohort
from survtree.cli import main
from survtree.treedoc import dumps_canonical, load_tree, tree_to_document
from test_treedoc import STRUCTURAL_DEFECTS, VALUE_DEFECTS

COVARIATES = "sex,age,blood_type,bmi,etiology,hcc,meld"


def run(*argv):
    return main(list(argv))


def simulate(tmp_path, name="cohort.csv", *extra):
    out = str(tmp_path / name)
    assert run("simulate", "--seed", "1", "--out", out, *extra) == 0
    return out


def fit_tree(tmp_path, data, name="tree.json", *extra):
    out = str(tmp_path / name)
    code = run(
        "fit", "--data", data, "--time", "time", "--event", "event",
        "--covariates", COVARIATES, "--out", out, *extra,
    )
    assert code == 0
    return out


def test_simulate_defaults_row_count(tmp_path, capsys):
    path = simulate(tmp_path)
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().strip().splitlines()
    assert len(rows) == 530  # header + 529
    out = capsys.readouterr().out
    assert "event fraction" in out and "MELD quartiles" in out


def test_simulate_small_n(tmp_path):
    out = str(tmp_path / "ten.csv")
    assert run("simulate", "--n", "10", "--seed", "2", "--out", out) == 0
    with open(out, encoding="utf-8") as fh:
        assert len(fh.read().strip().splitlines()) == 11


def test_simulate_repeat_identical_bytes(tmp_path):
    a = simulate(tmp_path, "a.csv")
    b = simulate(tmp_path, "b.csv")
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_simulate_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 25\nseed = 3\n", encoding="utf-8")
    out = str(tmp_path / "c.csv")
    assert run("simulate", "--config", str(cfg), "--n", "12", "--out", out) == 0
    with open(out, encoding="utf-8") as fh:
        assert len(fh.read().strip().splitlines()) == 13  # flag wins over file


def cohort_csv(cfg):
    out = io.StringIO()
    dataset_to_csv(simulate_cohort(cfg), out)
    return out.getvalue().encode("utf-8")


SIMULATE_FLAGS = [
    (["--n", "40"], "n", 40),
    (["--seed", "5"], "seed", 5),
    (["--threshold", "20"], "meld_threshold", 20.0),
    (["--hazard-ratio", "1.5"], "hazard_ratio", 1.5),
    (["--censor-frac", "0.4"], "censor_fraction_target", 0.4),
    (["--base-hazard", "0.002"], "base_hazard", 0.002),
    (["--age-effect", "40:2.5"], "age_effect", (40.0, 2.5)),
    (["--hcc-effect", "2"], "hcc_effect_ratio", 2.0),
    (["--labs-mode"], "labs_mode", True),
]


@pytest.mark.parametrize("flags, field, value", SIMULATE_FLAGS, ids=[f[0][0] for f in SIMULATE_FLAGS])
def test_each_simulate_flag_sets_its_config_field(tmp_path, flags, field, value):
    out = tmp_path / "c.csv"
    assert run("simulate", *flags, "--out", str(out)) == 0
    want = cohort_csv(dataclasses.replace(SimConfig(), **{field: value}))
    assert want != cohort_csv(SimConfig())  # the field shows in the cohort
    assert out.read_bytes() == want


def test_simulate_no_labs_mode_flag_beats_the_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("labs_mode = true\n", encoding="utf-8")
    out = tmp_path / "c.csv"
    assert run("simulate", "--config", str(cfg), "--no-labs-mode", "--out", str(out)) == 0
    assert out.read_bytes() == cohort_csv(SimConfig())  # False is a given flag, not an absent one


def test_each_fit_flag_reaches_the_tree_config(tmp_path):
    flags = ("--alpha", "0.1", "--minsplit", "30", "--minbucket", "10", "--max-depth", "2", "--test", "mc:99:7")
    tree = fit_tree(tmp_path, simulate(tmp_path), "tree.json", *flags)
    config = json.loads(Path(tree).read_text(encoding="utf-8"))["config"]
    assert (config["alpha"], config["minsplit"], config["minbucket"], config["max_depth"]) == (0.1, 30.0, 10.0, 2)
    assert config["test"] == {"method": "montecarlo", "replicates": 99, "seed": 7}


def test_simulate_config_not_utf8_exits_3(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_bytes(b"n = 5\nseed = \xff\n")
    out = tmp_path / "c.csv"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 3
    assert "can't decode byte 0xff" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--threshold", "nan"], "", "meld_threshold must be finite"),
        (["--age-effect", "nan:2"], "", "age_effect must be finite"),
        (["--age-effect", "33.2:inf"], "", "age_effect must be finite"),
        ([], "meld_threshold = nan\n", "meld_threshold must be finite"),
        ([], "labs_mode = maybe\n", "config key 'labs_mode': bad value 'maybe'"),
        (["--seed", "-1"], "", "seed must be in [0, 2**128), got -1"),
        (["--seed", str(2**128)], "", f"seed must be in [0, 2**128), got {2**128}"),
        ([], "seed = -1\n", "seed must be in [0, 2**128), got -1"),
    ],
    ids=[
        "threshold-nan", "age-threshold-nan", "age-ratio-inf", "config-threshold-nan", "config-labs-mode",
        "seed-negative", "seed-too-large", "config-seed-negative",
    ],
)
def test_simulate_bad_config_value_exits_3(tmp_path, capsys, flags, config, message):
    # a non-finite threshold or ratio would silently remove the planted effect
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 20\n" + config, encoding="utf-8")
    out = tmp_path / "c.csv"
    assert run("simulate", "--config", str(cfg), *flags, "--out", str(out)) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bad_flag_exits_2(tmp_path):
    assert run("simulate", "--n", "ten", "--out", str(tmp_path / "x.csv")) == 2


def test_fit_missing_required_flag_exits_2(tmp_path):
    data = simulate(tmp_path)
    assert run("fit", "--data", data, "--event", "event",
               "--covariates", COVARIATES, "--out", str(tmp_path / "t.json")) == 2


def test_fit_unknown_column_exits_3(tmp_path):
    data = simulate(tmp_path)
    assert run("fit", "--data", data, "--time", "nope", "--event", "event",
               "--covariates", COVARIATES, "--out", str(tmp_path / "t.json")) == 3


def test_fit_bad_alpha_exits_4(tmp_path):
    data = simulate(tmp_path)
    code = run("fit", "--data", data, "--time", "time", "--event", "event",
               "--covariates", COVARIATES, "--alpha", "2.0",
               "--out", str(tmp_path / "t.json"))
    assert code == 4
    assert not os.path.exists(tmp_path / "t.json")  # no partial output


def test_fit_recovers_meld_root(tmp_path, capsys):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    root = next(n for n in doc["nodes"] if n["id"] == 1)
    assert root["kind"] == "internal"
    assert root["covariate"] == "meld"
    assert 15.0 <= root["split"]["cutoff"] <= 17.0
    text = capsys.readouterr().out
    assert "meld" in text and "p = " in text


def test_fit_tiny_alpha_single_leaf_on_null_data(tmp_path):
    data = simulate(tmp_path, "null.csv", "--hazard-ratio", "1")
    tree_path = fit_tree(tmp_path, data, "leaf.json", "--alpha", "1e-9")
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    assert len(doc["nodes"]) == 1
    assert doc["nodes"][0]["kind"] == "leaf"


def test_tree_document_round_trip_bytes(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    text = Path(tree_path).read_text(encoding="utf-8")
    assert dumps_canonical(json.loads(text)) + "\n" == text
    doc = json.loads(text)
    assert doc["provenance"]["tool_version"]
    assert doc["provenance"]["input_sha256"]


def crlf_and_quoted_copies(tmp_path, data):
    """Paths of two copies of the CSV at `data` that are read through
    csv.reader: one with CRLF line ends, one whose last row starts with a
    quoted cell."""
    lf = Path(data).read_bytes()
    head, last = lf.rstrip(b"\n").rsplit(b"\n", 1)
    copies = {"crlf": lf.replace(b"\n", b"\r\n"), "quoted": head + b'\n"' + last.replace(b",", b'",', 1) + b"\n"}
    for name, text in copies.items():
        (tmp_path / f"{name}.csv").write_bytes(text)
    return {name: str(tmp_path / f"{name}.csv") for name in copies}


def test_fit_records_the_digest_of_the_bytes_of_any_line_end_or_quoting(tmp_path):
    data = simulate(tmp_path, "cohort.csv", "--n", "3000")
    docs = []
    for name, path in {"lf": data, **crlf_and_quoted_copies(tmp_path, data)}.items():
        doc = json.loads(Path(fit_tree(tmp_path, path, f"{name}.json")).read_text(encoding="utf-8"))
        assert doc["provenance"].pop("input_sha256") == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        docs.append(doc)
    assert docs[1] == docs[0] and docs[2] == docs[0]


def test_simulated_cohort_is_split_without_csv_reader(tmp_path, capsys, monkeypatch):
    # simulate writes no quotes and no carriage returns, so fit, predict and km
    # split its files directly; their outputs equal those on copies read
    # through csv.reader
    data = simulate(tmp_path, "cohort.csv", "--n", "3000")
    assert os.path.getsize(data) > survtree.data._CHUNK
    tree_path = fit_tree(tmp_path, data)
    paths = crlf_and_quoted_copies(tmp_path, data)
    commands = ("fit", "predict", "km")
    want = {(c, k): command_outputs(tmp_path, capsys, c, tree_path, path, f"{c}-{k}") for c in commands for k, path in paths.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    for c in commands:
        got = command_outputs(tmp_path, capsys, c, tree_path, data, f"{c}-split")
        assert got[0] == 0
        assert got == want[c, "crlf"] == want[c, "quoted"]


def _fit_while_writing(tmp_path, path, write):
    """Run `fit --data path` while the thread `write` feeds `path`, a pipe or
    a FIFO: fit's exit code (None if it hung) and the digest it recorded."""
    tree_path = tmp_path / "piped.json"
    codes = []

    def fit():
        codes.append(run("fit", "--data", path, "--time", "time", "--event", "event",
                         "--covariates", COVARIATES, "--out", str(tree_path)))

    threads = [threading.Thread(target=f, daemon=True) for f in (write, fit)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=20)
    hung = threads[1].is_alive()
    if hung:  # release a reader blocked in a second open() of the FIFO
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        threads[1].join(timeout=10)
    threads[0].join(timeout=10)
    if hung or codes != [0]:
        return None if hung else codes[0], None
    return 0, json.loads(tree_path.read_text(encoding="utf-8"))["provenance"]["input_sha256"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_fit_reads_a_named_pipe_once(tmp_path):
    # the input digest comes from the one read: opening the FIFO again, after
    # its writer has closed, would wait for a new writer for good
    data = Path(simulate(tmp_path)).read_bytes()
    path = str(tmp_path / "cohort.fifo")
    os.mkfifo(path)

    def write():
        with open(path, "wb") as fh:
            fh.write(data)

    assert _fit_while_writing(tmp_path, path, write) == (0, hashlib.sha256(data).hexdigest())


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_fit_records_the_digest_of_the_bytes_it_read_from_a_pipe(tmp_path):
    data = Path(simulate(tmp_path)).read_bytes()
    read_end, write_end = os.pipe()

    def write():
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)

    try:
        result = _fit_while_writing(tmp_path, f"/dev/fd/{read_end}", write)
    finally:
        os.close(read_end)
    assert result == (0, hashlib.sha256(data).hexdigest())


@pytest.mark.skipif(not hasattr(os, "mkfifo") or not os.path.exists("/dev/stdin"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["fit", "km"])
def test_stdin_on_a_fifo_whose_writer_has_finished_is_read(tmp_path, command):
    # `--data /dev/stdin < fifo`: opening the FIFO again would wait for a new
    # writer for good, so the CLI reads the descriptor it was given
    cohort = simulate(tmp_path)
    data = b"".join(Path(cohort).read_bytes().splitlines(keepends=True)[:200])
    (tmp_path / "head.csv").write_bytes(data)
    tree = fit_tree(tmp_path, cohort)
    out = {"fit": ["--time", "time", "--event", "event", "--covariates", COVARIATES, "--out"],
           "km": ["--tree", tree, "--out-dir"]}[command]
    assert run(command, "--data", str(tmp_path / "head.csv"), *out, str(tmp_path / "from-file")) == 0

    fifo = str(tmp_path / "head.fifo")
    os.mkfifo(fifo)
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # does not wait for a writer
    try:
        write_end = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        try:
            assert os.write(write_end, data) == len(data)  # fits in the pipe
        finally:
            os.close(write_end)
        os.set_blocking(read_end, True)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survtree.cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "survtree.cli", command, "--data", "/dev/stdin", *out, str(tmp_path / "from-stdin")],
            stdin=read_end, capture_output=True, env=env, timeout=30,
        )
    finally:
        os.close(read_end)
    assert proc.returncode == 0, proc.stderr
    if command == "fit":
        got, want = (tmp_path / "from-stdin").read_bytes(), (tmp_path / "from-file").read_bytes()
        assert json.loads(got)["provenance"]["input_sha256"] == hashlib.sha256(data).hexdigest()
    else:
        got, want = ({name: (tmp_path / d / name).read_bytes() for name in os.listdir(tmp_path / d)}
                     for d in ("from-stdin", "from-file"))
    assert got == want


def test_fit_montecarlo_seed_recorded(tmp_path):
    data = str(tmp_path / "small.csv")
    assert run("simulate", "--n", "60", "--seed", "4", "--out", data) == 0
    tree_path = str(tmp_path / "mc.json")
    code = run("fit", "--data", data, "--time", "time", "--event", "event",
               "--covariates", "meld,age", "--minsplit", "10", "--minbucket", "4",
               "--test", "mc:199:42", "--out", tree_path)
    assert code == 0
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    assert doc["provenance"]["seed"] == 42
    assert doc["config"]["test"]["method"] == "montecarlo"


SEEDS_OUTSIDE_RANGE = pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])


@SEEDS_OUTSIDE_RANGE
def test_fit_montecarlo_seed_outside_its_range_exits_4(tmp_path, capsys, seed):
    # seeds key Philox streams by their low 64 bits: -1 would alias 2**64 - 1
    data = simulate(tmp_path)
    out = tmp_path / "mc.json"
    code = run("fit", "--data", data, "--time", "time", "--event", "event",
               "--covariates", COVARIATES, "--test", f"mc:19:{seed}", "--out", str(out))
    assert code == 4
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@SEEDS_OUTSIDE_RANGE
def test_tree_file_with_seed_outside_its_range_exits_3(tmp_path, capsys, seed):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data, "t.json", "--max-depth", "1", "--test", "mc:19:5")
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    doc["config"]["test"]["seed"] = seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "t.dot"
    assert run("export-dot", "--tree", str(bad), "--out", str(out)) == 3
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_accepts_the_largest_montecarlo_seed(tmp_path, capsys):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data, "t.json", "--max-depth", "1", "--test", f"mc:19:{2**64 - 1}")
    assert json.loads(Path(tree_path).read_text(encoding="utf-8"))["config"]["test"]["seed"] == 2**64 - 1
    assert run("export-dot", "--tree", tree_path, "--out", str(tmp_path / "t.dot")) == 0


def test_export_dot_structure(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data, "t.json", "--max-depth", "1")
    dot_path = str(tmp_path / "t.dot")
    assert run("export-dot", "--tree", tree_path, "--out", dot_path) == 0
    dot = Path(dot_path).read_text(encoding="utf-8")
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    n_nodes = len(doc["nodes"])
    n_internal = sum(1 for n in doc["nodes"] if n["kind"] == "internal")
    assert dot.count("[label=") == n_nodes + 2 * n_internal
    assert dot.count("->") == 2 * n_internal
    if n_internal:
        cut = next(n for n in doc["nodes"] if n["id"] == 1)["split"]["cutoff"]
        assert f'label="<= {cut:.6g}"' in dot
        assert f'label="> {cut:.6g}"' in dot


def test_export_dot_single_leaf(tmp_path):
    data = simulate(tmp_path, "null.csv", "--hazard-ratio", "1")
    tree_path = fit_tree(tmp_path, data, "leaf.json", "--alpha", "1e-9")
    dot_path = str(tmp_path / "leaf.dot")
    assert run("export-dot", "--tree", tree_path, "--out", dot_path) == 0
    dot = Path(dot_path).read_text(encoding="utf-8")
    assert dot.count("[label=") == 1
    assert "->" not in dot


def test_export_dot_deterministic(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    a, b = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
    assert run("export-dot", "--tree", tree_path, "--out", a) == 0
    assert run("export-dot", "--tree", tree_path, "--out", b) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_export_dot_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format_version\": 99}", encoding="utf-8")
    assert run("export-dot", "--tree", str(bad), "--out", str(tmp_path / "x.dot")) == 3


def test_predict_training_rows_match_leaf_sizes(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    pred_path = str(tmp_path / "pred.csv")
    assert run("predict", "--tree", tree_path, "--data", data, "--out", pred_path) == 0
    rows = Path(pred_path).read_text(encoding="utf-8").strip().splitlines()[1:]
    assert len(rows) == 529
    counts = {}
    for row in rows:
        _, leaf, _ = row.split(",")
        counts[int(leaf)] = counts.get(int(leaf), 0) + 1
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    for node in doc["nodes"]:
        if node["kind"] == "leaf":
            assert counts.get(node["id"], 0) == int(node["n"])


def test_predict_single_leaf_everything_root(tmp_path):
    data = simulate(tmp_path, "null.csv", "--hazard-ratio", "1")
    tree_path = fit_tree(tmp_path, data, "leaf.json", "--alpha", "1e-9")
    pred_path = str(tmp_path / "pred.csv")
    assert run("predict", "--tree", tree_path, "--data", data, "--out", pred_path) == 0
    leaves = {line.split(",")[1] for line in
              Path(pred_path).read_text(encoding="utf-8").strip().splitlines()[1:]}
    assert leaves == {"1"}


def test_predict_missing_covariate_row_errors(tmp_path, capsys):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    # blank the meld cell of one data row
    lines = Path(data).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    meld_col = header.index("meld")
    cells = lines[3].split(",")
    cells[meld_col] = ""
    lines[3] = ",".join(cells)
    broken = str(tmp_path / "broken.csv")
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    pred_path = str(tmp_path / "pred.csv")
    assert run("predict", "--tree", tree_path, "--data", broken, "--out", pred_path) == 3
    assert "row 2" in capsys.readouterr().err
    assert not os.path.exists(pred_path)  # error path writes nothing


def test_km_single_leaf_matches_whole_cohort(tmp_path):
    data = simulate(tmp_path, "null.csv", "--hazard-ratio", "1")
    tree_path = fit_tree(tmp_path, data, "leaf.json", "--alpha", "1e-9")
    out_dir = str(tmp_path / "km_single")
    assert run("km", "--tree", tree_path, "--data", data, "--out-dir", out_dir) == 0
    files = sorted(os.listdir(out_dir))
    assert files == ["leaf_1.csv"]

    from survtree import km_estimate, load_csv
    from survtree.data import ColumnSpec, Schema

    schema = Schema("time", "event", tuple(ColumnSpec(c) for c in COVARIATES.split(",")))
    ds, _ = load_csv(data, schema)
    curve = km_estimate(ds.response.time, ds.response.event)
    rows = Path(os.path.join(out_dir, "leaf_1.csv")).read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "time,survival"
    assert rows[1] == "0.0,1.0"
    got = [tuple(map(float, r.split(","))) for r in rows[2:]]
    np.testing.assert_allclose(got, curve.steps, atol=1e-12)


def test_km_two_leaves_ordered_at_median_followup(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data, "t.json", "--max-depth", "1")
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    assert len(doc["nodes"]) == 3
    out_dir = str(tmp_path / "km_two")
    assert run("km", "--tree", tree_path, "--data", data, "--out-dir", out_dir) == 0

    def survival_at(path, t):
        rows = Path(path).read_text(encoding="utf-8").strip().splitlines()[1:]
        s = 1.0
        for row in rows:
            tt, ss = (float(x) for x in row.split(","))
            if tt <= t:
                s = ss
        return s

    from survtree import load_csv
    from survtree.data import ColumnSpec, Schema

    schema = Schema("time", "event", tuple(ColumnSpec(c) for c in COVARIATES.split(",")))
    ds, _ = load_csv(data, schema)
    t_mid = float(np.median(ds.response.time))
    low = survival_at(os.path.join(out_dir, "leaf_2.csv"), t_mid)
    high = survival_at(os.path.join(out_dir, "leaf_3.csv"), t_mid)
    assert high < low  # the high-MELD leaf has worse survival


def test_km_every_file_has_rows(tmp_path):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    out_dir = str(tmp_path / "km_all")
    assert run("km", "--tree", tree_path, "--data", data, "--out-dir", out_dir) == 0
    for name in os.listdir(out_dir):
        rows = Path(os.path.join(out_dir, name)).read_text(encoding="utf-8").strip().splitlines()
        assert rows[0] == "time,survival"
        assert len(rows) >= 2


def edit_cells(src, dst, edits):
    """Copy a CSV, replacing cells: edits maps (data row, column) to text."""
    lines = Path(src).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for (row, column), text in edits.items():
        cells = lines[row + 1].split(",")
        cells[header.index(column)] = text
        lines[row + 1] = ",".join(cells)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return dst


def test_km_drops_only_rows_it_cannot_route(tmp_path, capsys):
    # the tree splits only on meld: a blank etiology and an unknown blood
    # type do not keep a row out of its leaf, as they do not for predict
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    assert {n["covariate"] for n in doc["nodes"] if n["kind"] == "internal"} == {"meld"}
    edited = edit_cells(data, str(tmp_path / "edited.csv"),
                        {(5, "etiology"): "", (9, "blood_type"): "XX"})
    assert run("km", "--tree", tree_path, "--data", data, "--out-dir", str(tmp_path / "a")) == 0
    capsys.readouterr()
    assert run("km", "--tree", tree_path, "--data", edited, "--out-dir", str(tmp_path / "b")) == 0
    assert "dropped" not in capsys.readouterr().err
    for name in ("leaf_2.csv", "leaf_3.csv"):
        assert (Path(tmp_path / "a" / name).read_bytes()
                == Path(tmp_path / "b" / name).read_bytes())
    pred = str(tmp_path / "pred.csv")
    assert run("predict", "--tree", tree_path, "--data", edited, "--out", pred) == 0


@pytest.mark.parametrize("bad, message", [
    ("5,maybe,a", ":6: event value 'maybe' not in {0, 1, true, false}"),
    ("-3,1,a", ":6: negative time '-3'"),
])
def test_domain_error_names_the_line_its_row_starts_on(tmp_path, capsys, bad, message):
    # a blank line and a quoted cell holding a line break come before the bad row
    data = tmp_path / "bad.csv"
    data.write_text(f'time,event,x\n1,1,a\n\n2,0,"b\nc"\n{bad}\n', encoding="utf-8")
    with pytest.raises(DataError) as raised:
        load_csv(str(data), Schema("time", "event", (ColumnSpec("x"),)))
    assert str(raised.value) == f"{data}{message}"
    tree = fit_tree(tmp_path, simulate(tmp_path), "tree.json", "--max-depth", "0")
    capsys.readouterr()
    assert run("km", "--tree", tree, "--data", str(data), "--out-dir", str(tmp_path / "km")) == 3
    assert capsys.readouterr().err == f"error: {data}{message}\n"
    assert not (tmp_path / "km").exists()


def test_km_removes_stale_leaf_curves(tmp_path):
    data = simulate(tmp_path)
    three = fit_tree(tmp_path, data, "three.json", "--max-depth", "1")
    one = fit_tree(tmp_path, data, "one.json", "--max-depth", "0")
    out_dir = tmp_path / "km"
    assert run("km", "--tree", three, "--data", data, "--out-dir", str(out_dir)) == 0
    assert sorted(os.listdir(out_dir)) == ["leaf_2.csv", "leaf_3.csv"]
    (out_dir / "notes.txt").write_text("kept", encoding="utf-8")
    assert run("km", "--tree", one, "--data", data, "--out-dir", str(out_dir)) == 0
    assert sorted(os.listdir(out_dir)) == ["leaf_1.csv", "notes.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_get_the_mode_open_gives(tmp_path, umask):
    old = os.umask(umask)
    try:
        data = simulate(tmp_path)
        tree = fit_tree(tmp_path, data)
        assert run("predict", "--tree", tree, "--data", data, "--out", str(tmp_path / "leaves.csv")) == 0
        assert run("export-dot", "--tree", tree, "--out", str(tmp_path / "tree.dot")) == 0
        assert run("km", "--tree", tree, "--data", data, "--out-dir", str(tmp_path / "km")) == 0
    finally:
        os.umask(old)
    files = ["cohort.csv", "tree.json", "leaves.csv", "tree.dot"]
    files += [f"km/{name}" for name in os.listdir(tmp_path / "km")]
    assert len(files) > 4
    for name in files:
        assert os.stat(tmp_path / name).st_mode & 0o777 == 0o666 & ~umask, name


def test_simulate_into_a_missing_directory_exits_3(tmp_path, capsys):
    capsys.readouterr()
    assert run("simulate", "--out", str(tmp_path / "missing" / "x.csv")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert os.listdir(tmp_path) == []


def test_km_into_an_existing_file_exits_3(tmp_path, capsys):
    data = simulate(tmp_path)
    tree = fit_tree(tmp_path, data)
    (tmp_path / "km").write_text("a file", encoding="utf-8")
    capsys.readouterr()
    assert run("km", "--tree", tree, "--data", data, "--out-dir", str(tmp_path / "km")) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert (tmp_path / "km").read_text(encoding="utf-8") == "a file"
    assert sorted(os.listdir(tmp_path)) == ["cohort.csv", "km", "tree.json"]


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("error, code", [(OSError(28, "No space left on device"), 3), (RuntimeError("stop"), None)])
def test_simulate_failing_after_one_block_leaves_no_file(tmp_path, monkeypatch, capsys, exists, error, code):
    target = tmp_path / "cohort.csv"
    if exists:
        target.write_text("before", encoding="utf-8")
    real = survtree.cli.open_atomic

    class FailingHandle:
        """Passes the header and the first block of rows to `fh`, then raises
        on the next write."""

        def __init__(self, fh):
            self.fh, self.lines = fh, 0

        def write(self, text):
            if self.lines > survtree.data._BLOCK:
                raise error
            self.lines += text.count("\n")
            return self.fh.write(text)

    @contextlib.contextmanager
    def failing_open_atomic(path):
        with real(path) as fh:
            yield FailingHandle(fh)

    monkeypatch.setattr(survtree.cli, "open_atomic", failing_open_atomic)
    argv = ("simulate", "--n", str(2 * survtree.data._BLOCK), "--out", str(target))
    if code is None:
        with pytest.raises(RuntimeError):
            run(*argv)
    else:
        assert run(*argv) == code
        assert "No space left on device" in capsys.readouterr().err
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
    if exists:
        assert target.read_text(encoding="utf-8") == "before"
    else:
        assert not target.exists()


def edit_header(src, dst, edit):
    """Copy a CSV with one header defect. "duplicate" renames bmi to meld, so
    meld is named twice; "padded" writes "meld "; "bom" moves meld to the
    first column and starts the file with a UTF-8 byte-order mark."""
    rows = [line.split(",") for line in Path(src).read_text(encoding="utf-8").splitlines()]
    header = rows[0]
    if edit == "duplicate":
        header[header.index("bmi")] = "meld"
    elif edit == "padded":
        header[header.index("meld")] = "meld "
    else:
        j = header.index("meld")
        rows = [[r[j]] + r[:j] + r[j + 1:] for r in rows]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(("\ufeff" if edit == "bom" else "") + "\n".join(map(",".join, rows)) + "\n")
    return dst


def command_outputs(tmp_path, capsys, command, tree_path, data, tag):
    """Exit code of `command` on `data` and what it wrote: fit's text render
    and tree document (without the input file's hash), predict's table, or
    km's curves."""
    out = tmp_path / tag
    capsys.readouterr()
    if command == "fit":
        code = run("fit", "--data", data, "--time", "time", "--event", "event",
                   "--covariates", COVARIATES, "--out", str(out))
        if not out.exists():
            return code, None
        doc = json.loads(out.read_text(encoding="utf-8"))
        del doc["provenance"]["input_sha256"]
        return code, (capsys.readouterr().out, doc)
    flag = "--out" if command == "predict" else "--out-dir"
    code = run(command, "--tree", tree_path, "--data", data, flag, str(out))
    if not out.exists():
        return code, None
    if out.is_dir():
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, out.read_bytes()


@pytest.mark.parametrize("command", ["fit", "predict", "km"])
def test_duplicate_header_name_exits_3(tmp_path, capsys, command):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    edited = edit_header(data, str(tmp_path / "edited.csv"), "duplicate")
    assert command_outputs(tmp_path, capsys, command, tree_path, edited, "out") == (3, None)
    assert "'meld' more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "predict", "km"])
@pytest.mark.parametrize("edit", ["bom", "padded"])
def test_header_bom_and_padding_load_like_plain_header(tmp_path, capsys, edit, command):
    data = simulate(tmp_path)
    tree_path = fit_tree(tmp_path, data)
    edited = edit_header(data, str(tmp_path / "edited.csv"), edit)
    plain = command_outputs(tmp_path, capsys, command, tree_path, data, "plain")
    assert plain[0] == 0
    assert command_outputs(tmp_path, capsys, command, tree_path, edited, "edited") == plain


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """A 2000-row cohort with the MELD, age and HCC effects and its tree:
    meld at the root, hcc on both sides, and age only under meld > cut-off
    and hcc = no."""
    directory = tmp_path_factory.mktemp("planted")
    data = str(directory / "cohort.csv")
    assert run("simulate", "--n", "2000", "--seed", "7", "--age-effect", "33.2:2",
               "--hcc-effect", "2", "--out", data) == 0
    tree_path = fit_tree(directory, data)
    doc = json.loads(Path(tree_path).read_text(encoding="utf-8"))
    nodes = {n["id"]: n for n in doc["nodes"]}
    assert [nodes[i].get("covariate") for i in (1, 2, 3, 6)] == ["meld", "hcc", "hcc", "age"]
    rows = list(csv.DictReader(Path(data).read_text(encoding="utf-8").splitlines()))
    return data, tree_path, nodes[1]["split"]["cutoff"], rows


def km_curves(tmp_path, capsys, tree_path, data, tag):
    """km's exit code, stderr and curve files for `data`."""
    capsys.readouterr()
    out_dir = tmp_path / tag
    code = run("km", "--tree", tree_path, "--data", data, "--out-dir", str(out_dir))
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else None
    return code, capsys.readouterr().err, files


def test_km_and_predict_keep_a_row_blank_off_its_path(tmp_path, capsys, planted):
    data, tree_path, cutoff, rows = planted
    i = next(i for i, r in enumerate(rows) if float(r["meld"]) <= cutoff)
    edited = edit_cells(data, str(tmp_path / "edited.csv"), {(i, "age"): ""})
    plain = str(tmp_path / "plain.csv")
    edited_pred = str(tmp_path / "edited_pred.csv")
    assert run("predict", "--tree", tree_path, "--data", data, "--out", plain) == 0
    assert run("predict", "--tree", tree_path, "--data", edited, "--out", edited_pred) == 0
    assert Path(plain).read_bytes() == Path(edited_pred).read_bytes()
    code, err, files = km_curves(tmp_path, capsys, tree_path, edited, "edited")
    assert (code, "dropped" in err) == (0, False)
    assert files == km_curves(tmp_path, capsys, tree_path, data, "plain")[2]


@pytest.mark.parametrize("column, cell", [
    ("meld", ""), ("meld", "abc"), ("meld", "nan"), ("meld", "inf"), ("hcc", "maybe"), ("age", ""),
])
def test_unusable_cell_on_the_path_stops_predict_and_drops_in_km(tmp_path, capsys, planted, column, cell):
    data, tree_path, cutoff, rows = planted
    # a row that reaches the age split: meld above the cut-off, no HCC
    i = next(i for i, r in enumerate(rows) if float(r["meld"]) > cutoff and r["hcc"] == "no")
    edited = edit_cells(data, str(tmp_path / "edited.csv"), {(i, column): cell})
    capsys.readouterr()
    pred = tmp_path / "pred.csv"
    assert run("predict", "--tree", tree_path, "--data", edited, "--out", str(pred)) == 3
    err = capsys.readouterr().err
    assert f"row {i}: no usable value for split covariate {column!r}: {cell!r}" in err
    assert "1 of 2000 rows could not be routed" in err
    assert not pred.exists()

    lines = Path(data).read_text(encoding="utf-8").splitlines()
    without = tmp_path / "without.csv"
    without.write_text("\n".join(lines[:i + 1] + lines[i + 2:]) + "\n", encoding="utf-8")
    code, err, files = km_curves(tmp_path, capsys, tree_path, edited, "edited")
    assert (code, "dropped 1 incomplete rows" in err) == (0, True)
    assert files == km_curves(tmp_path, capsys, tree_path, str(without), "without")[2]


@pytest.mark.parametrize("command", ["predict", "km"])
def test_header_without_split_covariate_exits_3(tmp_path, capsys, planted, command):
    data, tree_path, _, _ = planted
    rows = [line.split(",") for line in Path(data).read_text(encoding="utf-8").splitlines()]
    j = rows[0].index("age")
    edited = tmp_path / "edited.csv"
    edited.write_text("\n".join(",".join(r[:j] + r[j + 1:]) for r in rows) + "\n", encoding="utf-8")
    assert command_outputs(tmp_path, capsys, command, tree_path, str(edited), "out") == (3, None)
    assert "column 'age' not in header" in capsys.readouterr().err


@pytest.mark.parametrize("defect, message", STRUCTURAL_DEFECTS)
@pytest.mark.parametrize("command", ["predict", "km", "export-dot"])
def test_malformed_tree_structure_exits_3(tmp_path, capsys, command, defect, message):
    data = simulate(tmp_path)
    doc = json.loads(Path(fit_tree(tmp_path, data, "t.json", "--max-depth", "1")).read_text(encoding="utf-8"))
    assert len(doc["nodes"]) == 3
    defect(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "predict": ["--data", data, "--out", out],
        "km": ["--data", data, "--out-dir", out],
        "export-dot": ["--out", out],
    }[command]
    assert run(command, "--tree", str(bad), *argv) == 3
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def depth_one(tmp_path_factory):
    """The seed-1 cohort and its max-depth-1 tree: a meld split, leaves 2 and 3."""
    directory = tmp_path_factory.mktemp("depth_one")
    data = simulate(directory)
    return data, fit_tree(directory, data, "t.json", "--max-depth", "1")


def command_argv(command, data, out):
    return {
        "predict": ["--data", data, "--out", out],
        "km": ["--data", data, "--out-dir", out],
        "export-dot": ["--out", out],
    }[command]


def _edit_document(defect):
    def edit(raw):
        doc = json.loads(raw)
        defect(doc)
        return json.dumps(doc).encode()
    edit.__name__ = defect.__name__
    return edit


def _deep_nesting(raw):
    return b"[" * 200_000


def _not_utf8(raw):
    return raw.replace(b'"meld"', b'"m\xffld"', 1)


TREE_FILE_DEFECTS = [(_edit_document(defect), message) for defect, message in VALUE_DEFECTS] + [
    (_deep_nesting, "maximum recursion depth"),
    (_not_utf8, "can't decode byte 0xff"),
]


@pytest.mark.parametrize("defect, message", TREE_FILE_DEFECTS)
@pytest.mark.parametrize("command", ["predict", "km", "export-dot"])
def test_malformed_tree_file_exits_3(tmp_path, capsys, depth_one, command, defect, message):
    data, tree_path = depth_one
    bad = tmp_path / "bad.json"
    bad.write_bytes(defect(Path(tree_path).read_bytes()))
    out = str(tmp_path / "out")
    assert run(command, "--tree", str(bad), *command_argv(command, data, out)) == 3
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A tree with numeric, subset and ordinal splits, 300 rows of its cohort
    to route, and a directory for mutated tree files."""
    directory = tmp_path_factory.mktemp("fuzz")
    data = simulate(directory, "cohort.csv", "--n", "3000", "--seed", "3", "--hcc-effect", "3")
    tree_path = str(directory / "tree.json")
    assert run("fit", "--data", data, "--time", "time", "--event", "event",
               "--covariates", "sex,blood_type:ord,etiology,hcc,meld", "--alpha", "0.5",
               "--out", tree_path) == 0
    raw = Path(tree_path).read_bytes()
    splits = [n["split"] for n in json.loads(raw)["nodes"] if n["kind"] == "internal"]
    # blood_type:ord's cut-off is a level index; meld's are near 16
    assert any("subset" in s for s in splits) and any(s.get("cutoff") == 0.0 for s in splits)
    rows = str(directory / "rows.csv")
    with open(data, encoding="utf-8") as fh, open(rows, "w", encoding="utf-8") as out:
        out.writelines(fh.readlines()[:301])
    return raw, rows, directory


def _paths(obj, path=()):
    """Every dict key and list index path in a JSON value, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _edited_file(data, raw):
    """The fitted file with one field dropped or given another JSON value."""
    doc = json.loads(raw)
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if data.draw(st.booleans()):
        del parent[key]
    else:
        values = [_at(doc, p) for p in paths]
        strings = sorted({v for v in values if isinstance(v, str)} | {"\ud800"})
        parent[key] = data.draw(_values_like(parent[key], strings))
    return json.dumps(doc).encode()


def _broken_file(data, raw):
    """Random bytes, the fitted file with a byte that is not UTF-8 inserted,
    or the fitted document, or one of its fields, nested deep."""
    how = data.draw(st.sampled_from(["bytes", "not-utf8", "nest"]))
    if how == "bytes":
        return data.draw(st.binary(max_size=64))
    if how == "not-utf8":
        i = data.draw(st.integers(0, len(raw)))
        return raw[:i] + data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])) + raw[i:]
    doc = json.loads(raw)
    path = data.draw(st.sampled_from([()] + list(_paths(doc))))
    depth = data.draw(st.sampled_from([3, 500, 200_000]))
    nested = b"[" * depth + b"]" * depth
    if not path:
        return nested
    _at(doc, path[:-1])[path[-1]] = "\x00nest"
    return json.dumps(doc).encode().replace(b'"\\u0000nest"', nested)


def _values_like(value, strings):
    """Any JSON value, or half the time one of `value`'s own JSON type; strings
    are mostly the document's own, so that edits often still load."""
    text = st.sampled_from(strings) | st.text(max_size=6)
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | text
    anything = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=4,
    )
    if isinstance(value, bool):
        return st.booleans() | anything
    if isinstance(value, (int, float)):
        return st.integers() | st.floats() | anything
    return text | anything if isinstance(value, str) else anything


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def check_tree_file(fuzz_base, content):
    """predict, km and export-dot exit 0 or 3 on a tree file, exit 3 leaves no
    output, and a file that loads writes back to the same bytes."""
    _, rows, directory = fuzz_base
    tree_file = directory / "mutated.json"
    tree_file.write_bytes(content)
    try:
        tree, response = load_tree(str(tree_file))
    except DataError:
        tree = None
    for command in ("predict", "km", "export-dot"):
        out = str(directory / "out")
        code = run(command, "--tree", str(tree_file), *command_argv(command, rows, out))
        if tree is None:
            assert code == 3
        else:  # predict stops on an unroutable row, km on a response column the CSV lacks
            assert code == 0 if command == "export-dot" else code in (0, 3)
        if code == 3:
            assert not os.path.exists(out)
        elif os.path.isdir(out):
            shutil.rmtree(out)
        else:
            os.remove(out)
    if tree is not None:
        doc, again = json.loads(content), tree_to_document(tree, *response)
        for section in ("config", "nodes"):
            assert dumps_canonical(again[section]) == dumps_canonical(doc[section])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edited_tree_file_exits_0_or_3(fuzz_base, data):
    check_tree_file(fuzz_base, _edited_file(data, fuzz_base[0]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_broken_tree_file_exits_0_or_3(fuzz_base, data):
    check_tree_file(fuzz_base, _broken_file(data, fuzz_base[0]))


@pytest.fixture(scope="module")
def hostile_base(tmp_path_factory):
    """An 80-row cohort's header and rows of cells, a tree fitted on it, and
    a directory for the hostile copies."""
    directory = tmp_path_factory.mktemp("hostile")
    data = simulate(directory, "cohort.csv", "--n", "80")
    tree = fit_tree(directory, data, "base.json", "--alpha", "0.5", "--minsplit", "2", "--minbucket", "1")
    header, *rows = (line.split(",") for line in Path(data).read_text(encoding="utf-8").splitlines())
    return header, rows, tree, directory


# numbers float() reads but are not finite, underflow or are signed zero,
# text float() reads (full-width digits) or not, and quoted cells: a number,
# a comma, line breaks
HOSTILE_CELLS = ["", "nan", "inf", "-inf", "1e308", "1e-320", "-0.0", "-1", "0x10", "\uff11\uff12", "\u00e9", "1e400",
                 '"7"', '"-1"', '"a,b"', '"1\n2"', '"x\r\ny"']


def _hostile_csv(data, header, rows):
    """The cohort's text with 1-6 cells replaced by hostile ones, some lines
    ended by CRLF and some blank lines put in among the data lines."""
    rows = [list(row) for row in rows]
    for _ in range(data.draw(st.integers(1, 6))):
        row = data.draw(st.integers(0, len(rows) - 1))
        column = header.index(data.draw(st.sampled_from(header + ["time", "event"])))  # the response twice as often
        rows[row][column] = data.draw(st.sampled_from(HOSTILE_CELLS))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    crlf = data.draw(st.sets(st.integers(0, len(lines) - 1), max_size=6))
    blank = data.draw(st.sets(st.integers(1, len(lines) - 1), max_size=4))
    return "".join(("\n" if i in blank else "") + line + ("\r\n" if i in crlf else "\n") for i, line in enumerate(lines))


def _check_tree_counts(tree_path):
    """Every node's n and events are finite; an internal node's are its children's sums."""
    nodes = {node["id"]: node for node in json.loads(Path(tree_path).read_text(encoding="utf-8"))["nodes"]}
    for node in nodes.values():
        assert math.isfinite(node["n"]) and math.isfinite(node["events"])
        if node["kind"] == "internal":
            for key in ("n", "events"):
                assert node[key] == sum(nodes[child][key] for child in node["children"])


def _run_quietly(*argv):
    """The exit code and standard error of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(*argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hostile_csv_exits_0_3_or_4_and_names_the_oracles_line(hostile_base, data):
    # fit, predict, km and export-dot on a cohort with hostile cells: no
    # traceback, no tree with a non-finite count, and a time or event error
    # names the line csv.reader starts the row on
    header, rows, base_tree, directory = hostile_base
    path = directory / "hostile.csv"
    path.write_text(_hostile_csv(data, header, rows), encoding="utf-8", newline="")
    path = str(path)
    try:
        csv_oracle.load_csv(path, "time", "event", [(name, "auto", None) for name in COVARIATES.split(",")])
        domain_error = None
    except csv_oracle.OracleError as exc:
        domain_error = str(exc) if "event value" in str(exc) or "negative time" in str(exc) else None
    trees = [base_tree]
    for test in ("asymptotic", "mc:19:1"):
        tree = str(directory / f"{test.partition(':')[0]}.json")
        code, err = _run_quietly("fit", "--data", path, "--time", "time", "--event", "event", "--covariates", COVARIATES,
                                 "--alpha", "0.5", "--minsplit", "2", "--minbucket", "1", "--test", test, "--out", tree)
        assert code in (0, 3, 4), err
        if domain_error is not None:
            assert (code, err) == (3, f"error: {domain_error}\n")
        if code == 0:
            _check_tree_counts(tree)
            trees.append(tree)
    for tree in trees:
        for command in ("predict", "km", "export-dot"):
            code, err = _run_quietly(command, "--tree", tree, *command_argv(command, path, str(directory / command)))
            assert code in (0, 3), err
            if command == "km" and domain_error is not None:
                assert (code, err) == (3, f"error: {domain_error}\n")


def test_unknown_subcommand_exits_2():
    assert run("frobnicate") == 2
