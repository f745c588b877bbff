"""Byte pins for the whole CLI pipeline.

simulate --seed 1 -> fit on all seven covariates (asymptotic and mc:999:7)
-> export-dot, predict and km. Every artifact and fit's stdout is pinned by
its sha256, so a refactor of the fitting code that claims to keep every byte
is checked on the files a user actually gets. The digests follow from
numpy's floating-point reductions; a numpy build that sums differently may
move them, and then every pin here moves together.
"""

import hashlib
import os

import pytest

from survtree.cli import main

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
