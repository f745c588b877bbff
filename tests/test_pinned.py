"""Byte pins for the whole CLI pipeline.

simulate --seed 1 -> fit on all seven covariates (asymptotic and mc:999:7)
-> export-dot, predict and km. Every artifact and fit's stdout is pinned by
its sha256, so a refactor of the fitting code that claims to keep every byte
is checked on the files a user actually gets. `simulate`'s cohort CSV is
pinned on its own for six generator configs (default, a 25,000-row cohort
with age and HCC effects, two censoring targets, and labs mode at 529 and at
10,000 rows, three blocks of the writer), so a change to the generator or the
writer that claims the same bytes is checked too. So is `fit` on the
25,000-row cohort: deep nodes with many tied times and covariate values,
which the 529-row pins do not reach; that fit is also run in fresh processes
under one and under two BLAS threads, since its nodes hold more rows than
one BLAS call sums in a fixed order. Forty paper-sized library fits,
planted and null cohorts in turn, are pinned by one digest over their
`tree.json` bytes and every node's selection tests, so a per-node shortcut
that moves one p-value's last bit fails here. The digests follow from numpy's
floating-point reductions; a numpy build that sums differently may move
them, and then every pin here moves together.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import survtree
from survtree import FitConfig, SimConfig
from survtree.cli import main
from survtree.treedoc import dumps_canonical, tree_to_document

COVARIATES = "sex,age,blood_type,bmi,etiology,hcc,meld"

PINNED = {
    "asymptotic": {
        "fit.stdout": "134a8f12d4fc698e1e27976b42eb98131c3f2108ee87d4b4bf861322a7fb333d",
        "tree.json": "b42a9cff470f7dd1774408b7e15979e4577d27fe3f61e18742c684358bb973e9",
        "tree.dot": "aec0a3b217df9dc78b4a74061a63111836d2f60808d07ea92a9f5c8f9f543370",
        "leaves.csv": "64a210035a709c186c1fc275abdd5f496627bd6c0e2a28479a10290ac4578f03",
        "km/leaf_2.csv": "44f6625c02c9c928dd629bd5487832aa5c06b1d39c45868816afe90d3962f066",
        "km/leaf_3.csv": "afa59e3d5952e64ddd644821da66ff01fe1f1cd5273adfa0b257e6465e02ce1b",
    },
    "mc:999:7": {
        "fit.stdout": "1d057573e35cba2c4a8be6bbd5dd385e65df6c75fa16240268d010dd4fc88a46",
        "tree.json": "6281c5ed9d08d4f50ac080b1b94e6b48cd5015a29c0e3546933930c49f935548",
        "tree.dot": "350799d88d7cd6c9da8e7f504d606a4e7e4a7e4a7badfa953afad1abec243135",
        "leaves.csv": "64a210035a709c186c1fc275abdd5f496627bd6c0e2a28479a10290ac4578f03",
        "km/leaf_2.csv": "44f6625c02c9c928dd629bd5487832aa5c06b1d39c45868816afe90d3962f066",
        "km/leaf_3.csv": "afa59e3d5952e64ddd644821da66ff01fe1f1cd5273adfa0b257e6465e02ce1b",
    },
}


COHORT_PINNED = {
    "default": ([], "fc16cce55bda1e37fdb06533a1597ca62d3a90e21a7d3c76df13aea427f81171"),
    "n25000-age-hcc": (
        ["--n", "25000", "--age-effect", "33.2:2", "--hcc-effect", "2"],
        "db34869be60ba6ec3b1827a1ec5ff2e906d8c6cbb6261ffe6cb7f868b916a812",
    ),
    "censor-0.1": (["--censor-frac", "0.1"], "3b16d38ab3469d530e78457933579771efa4f59264b9f101b97b525793ea4354"),
    "censor-0.9": (["--censor-frac", "0.9"], "c8099ee52206e77c9d5b7e8629d7032c7a937e79189aca1ff8ff5307baa4a1fe"),
    "labs-mode": (["--labs-mode"], "ae26192c683584e2675dd9d5fcca93e03dd1871c55c805f4c122a7342cb0d648"),
    "labs-mode-n10000": (
        ["--labs-mode", "--n", "10000"],
        "c1d84dea5df03abc5e16381bbbd002cb5fe56c928b935f9a950551c56d05cdc7",
    ),
}


FIT_25K_PINNED = {
    "fit.stdout": "e2a4ecb6398c1aef111e4c70b5f5b69e5bdb087db291fbaa26d8d2a573b3e116",
    "tree.json": "370c8c3b7a7366502bcfe684df221bad1c04f7f27e04b2ad4dd3d473e36a6952",
}


# 40 n = 529 cohorts, seeds 1-40, hazard ratio 3 at odd seeds and 1 at even ones
STUDY_PINNED = "144c4d345c3f5ff56a4d8e5139adbb0c7ec469713f460474efaad9a19a42d476"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pipeline(tmp_path, capsys, test: str) -> dict[str, str]:
    cohort = str(tmp_path / "cohort.csv")
    assert main(["simulate", "--seed", "1", "--out", cohort]) == 0
    capsys.readouterr()
    tree = str(tmp_path / "tree.json")
    assert main(["fit", "--data", cohort, "--time", "time", "--event", "event",
                 "--covariates", COVARIATES, "--test", test, "--out", tree]) == 0
    digests = {"fit.stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    assert main(["export-dot", "--tree", tree, "--out", str(tmp_path / "tree.dot")]) == 0
    assert main(["predict", "--tree", tree, "--data", cohort, "--out", str(tmp_path / "leaves.csv")]) == 0
    km_dir = tmp_path / "km"
    assert main(["km", "--tree", tree, "--data", cohort, "--out-dir", str(km_dir)]) == 0
    for name in ("tree.json", "tree.dot", "leaves.csv"):
        digests[name] = _sha256((tmp_path / name).read_bytes())
    for name in sorted(os.listdir(km_dir)):
        digests[f"km/{name}"] = _sha256((km_dir / name).read_bytes())
    return digests


@pytest.mark.parametrize("test", sorted(PINNED))
def test_pipeline_artifacts_are_pinned(tmp_path, capsys, test):
    assert _pipeline(tmp_path, capsys, test) == PINNED[test]


@pytest.mark.parametrize("config", sorted(COHORT_PINNED))
def test_simulated_cohort_is_pinned(tmp_path, capsys, config):
    args, digest = COHORT_PINNED[config]
    cohort = tmp_path / "cohort.csv"
    assert main(["simulate", "--seed", "1", *args, "--out", str(cohort)]) == 0
    capsys.readouterr()
    assert _sha256(cohort.read_bytes()) == digest


def test_fit_on_the_25k_cohort_is_pinned(tmp_path, capsys):
    cohort, tree = str(tmp_path / "cohort.csv"), tmp_path / "tree.json"
    assert main(["simulate", "--seed", "1", *COHORT_PINNED["n25000-age-hcc"][0], "--out", cohort]) == 0
    capsys.readouterr()
    assert main(["fit", "--data", cohort, "--time", "time", "--event", "event",
                 "--covariates", COVARIATES, "--out", str(tree)]) == 0
    digests = {"fit.stdout": _sha256(capsys.readouterr().out.encode("utf-8")), "tree.json": _sha256(tree.read_bytes())}
    assert digests == FIT_25K_PINNED


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fit_on_the_25k_cohort_is_pinned_at_any_blas_thread_count(tmp_path, capsys, threads):
    cohort, tree = str(tmp_path / "cohort.csv"), tmp_path / "tree.json"
    assert main(["simulate", "--seed", "1", *COHORT_PINNED["n25000-age-hcc"][0], "--out", cohort]) == 0
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(survtree.__file__)))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
    proc = subprocess.run(
        [sys.executable, "-m", "survtree.cli", "fit", "--data", cohort, "--time", "time", "--event", "event",
         "--covariates", COVARIATES, "--out", str(tree)],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert {"fit.stdout": _sha256(proc.stdout), "tree.json": _sha256(tree.read_bytes())} == FIT_25K_PINNED


def test_study_fits_are_pinned():
    digest = hashlib.sha256()
    for i in range(40):
        cohort = survtree.simulate_cohort(SimConfig(seed=i + 1, hazard_ratio=3.0 if i % 2 == 0 else 1.0))
        tree = survtree.fit(cohort, FitConfig())
        digest.update((dumps_canonical(tree_to_document(tree, "time", "event")) + "\n").encode("utf-8"))
        for nid in sorted(tree.nodes):
            digest.update(repr(tree.nodes[nid].tests).encode("utf-8"))
    assert digest.hexdigest() == STUDY_PINNED
