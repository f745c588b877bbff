"""The benchmark's workloads: how each builds its inputs from a seed, warms
up, runs one timed round and checks its outputs.

A round runs the five pipeline stages (simulate, fit, export, predict, km)
once over the workload's inputs and returns the seconds each stage took.
`gc.collect()` runs before every timed stage, outside the timed interval.
Checks compare the outputs against `reference` (numpy code written apart
from survtree) or against properties the method must have.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference
import survtree
from survtree import NUMERIC, ColumnSpec, DataError, FitConfig, FitError, Schema, SimConfig, TestMethod
from survtree import cli, treedoc

# survtree's functions are looked up on their modules at call time, so that
# a traced run's wrappers see the benchmark's own calls too

COVARIATES = ("sex", "age", "blood_type", "bmi", "etiology", "hcc", "meld")
EVENT_FRACTION = 0.36  # 1 - the simulator's default censoring target
# survtree's asymptotic p-value 1 - (2 Phi(c) - 1)^dof evaluates to 0.0 in
# double precision once c_max passes about 38.49
UNDERFLOW_C_MAX = 38.49


@dataclass
class Round:
    seconds: dict  # stage -> seconds for one pass over the workload's inputs
    attempted: int
    failed: int
    fingerprint: str  # sha256 over every output of the round
    summary: object = None  # what the checks need from the round's outputs


@dataclass
class Checks:
    failures: list = field(default_factory=list)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _timed(stage: str, tracer, func, samples: int = 1, passes: int = 1):
    """Median seconds per call of `func` over `samples` timed intervals of
    `passes` calls each, and the last call's result. Stages of a few
    milliseconds take many calls, so each interval holds enough work to time
    and the median has many samples."""
    gc.collect()
    times = []
    with tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext():
        for _ in range(samples):
            start = time.perf_counter()
            for _ in range(passes):
                result = func()
            times.append((time.perf_counter() - start) / passes)
    return statistics.median(times), result


def _close(value: float, ref: float, rtol: float = 1e-9) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-12


# -- cohort-25k: the CLI pipeline on one large cohort ----------------------


class CohortPipeline:
    """simulate -> fit -> export-dot -> predict -> km through
    `survtree.cli.main`, on one 25,000-row cohort with the MELD-16 jump and
    the planted age-33.2 and HCC effects, asymptotic test."""

    name = "cohort-25k"
    n_cohorts = 1
    n = 25_000
    warmup_n = 5_000
    # (samples, passes per sample) of stages shorter than a second
    repeats = {"simulate": (3, 1)}

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.rounds = 0

    def _argv(self, directory: str, n: int) -> list[tuple[str, list[str]]]:
        cohort = os.path.join(directory, "cohort.csv")
        tree = os.path.join(directory, "tree.json")
        return [
            ("simulate", ["simulate", "--n", str(n), "--seed", str(self.seed),
                          "--age-effect", "33.2:2", "--hcc-effect", "2", "--out", cohort]),
            ("fit", ["fit", "--data", cohort, "--time", "time", "--event", "event",
                     "--covariates", ",".join(COVARIATES), "--out", tree]),
            ("export", ["export-dot", "--tree", tree, "--out", os.path.join(directory, "tree.dot")]),
            ("predict", ["predict", "--tree", tree, "--data", cohort,
                         "--out", os.path.join(directory, "leaves.csv")]),
            # a fresh directory per round: km never removes curves of an
            # earlier tree from its output directory
            ("km", ["km", "--tree", tree, "--data", cohort, "--out-dir", os.path.join(directory, "km")]),
        ]

    @staticmethod
    def _cli(argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            print(f"survtree {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code

    def warm_up(self) -> None:
        directory = os.path.join(self.workdir, "warmup")
        os.makedirs(directory)
        for _, argv in self._argv(directory, self.warmup_n):
            if self._cli(argv) != 0:
                raise RuntimeError(f"warm-up command {argv[0]} failed")
        shutil.rmtree(directory)

    def round(self, tracer=None) -> Round:
        directory = os.path.join(self.workdir, f"round{self.rounds}")
        self.rounds += 1
        os.makedirs(directory)
        seconds, attempted, failed = {}, 0, 0
        for stage, argv in self._argv(directory, self.n):
            codes = []
            seconds[stage], _ = _timed(
                stage, tracer, lambda: codes.append(self._cli(argv)), *self.repeats.get(stage, (1, 1))
            )
            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
        digest = hashlib.sha256()
        for path in self._artifacts(directory):
            digest.update(path.encode())
            with open(os.path.join(directory, path), "rb") as fh:
                digest.update(fh.read())
        if self.rounds > 1:
            shutil.rmtree(directory)  # the first round's files are checked
        return Round(seconds, attempted, failed, digest.hexdigest(), directory)

    @staticmethod
    def _artifacts(directory: str) -> list[str]:
        names = ["cohort.csv", "tree.json", "tree.dot", "leaves.csv"]
        km_dir = os.path.join(directory, "km")
        if os.path.isdir(km_dir):
            names += [f"km/{name}" for name in sorted(os.listdir(km_dir))]
        return [name for name in names if os.path.exists(os.path.join(directory, name))]

    def memory_subject(self, first: Round):
        """The library fit the `fit` command runs, on the first round's CSV."""
        schema = Schema("time", "event", tuple(ColumnSpec(name) for name in COVARIATES))
        dataset, _ = survtree.load_csv(os.path.join(first.summary, "cohort.csv"), schema)
        return lambda: survtree.fit(dataset, FitConfig())

    def check(self, first: Round, checks: Checks) -> None:
        directory = first.summary
        cells = _read_columns(os.path.join(directory, "cohort.csv"))
        n = len(cells["time"])
        time_ = cells["time"].astype(float)
        event = cells["event"].astype(int).astype(bool)
        checks.require(n == self.n, f"cohort has {n} rows, expected {self.n}")
        se = math.sqrt(EVENT_FRACTION * (1 - EVENT_FRACTION) / n)
        fraction = float(event.mean())
        checks.require(
            abs(fraction - EVENT_FRACTION) <= 4 * se,
            f"event fraction {fraction:.4f} is more than 4 SE from {EVENT_FRACTION}",
        )

        with open(os.path.join(directory, "tree.json"), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        checks.require(
            treedoc.dumps_canonical(doc) + "\n" == text, "tree.json does not re-serialize byte-identically"
        )
        nodes = {node["id"]: node for node in doc["nodes"]}
        leaves = [node for node in doc["nodes"] if node["kind"] == "leaf"]
        internal = [node for node in doc["nodes"] if node["kind"] == "internal"]
        alpha = doc["config"]["alpha"]

        root = nodes[1]
        scores = reference.logrank_scores(time_, event)
        if root.get("covariate") != "meld":
            # survtree's asymptotic p-values underflow to 0.0 beyond c_max
            # ~ 38.49, and equal p-values go to the covariate declared first:
            # a known fault of its variable selection. A root on an earlier
            # covariate is that tie-break only if both c_max are past it.
            other = root.get("covariate")
            c_other = reference.c_max(_root_design(doc, cells, other), scores) if other in cells else 0.0
            c_meld = reference.c_max(_root_design(doc, cells, "meld"), scores)
            checks.require(
                other in COVARIATES[:COVARIATES.index("meld")] and min(c_other, c_meld) > UNDERFLOW_C_MAX,
                f"root splits on {other} (c_max {c_other:.2f}), not meld (c_max {c_meld:.2f})",
            )
        else:
            cutoff = root["split"]["cutoff"]
            cutoffs, stats = reference.twosample_scan(
                cells["meld"].astype(float), scores, doc["config"]["minbucket"]
            )
            best = stats.max()
            at = stats[np.searchsorted(cutoffs, cutoff)] if cutoff in cutoffs else -np.inf
            checks.require(
                at >= best - 1e-9 * best,
                f"root cut-off {cutoff} scores {at}, the reference scan's best is {best}",
            )
            checks.require(15.0 <= cutoff <= 17.0, f"root cut-off {cutoff} outside [15, 17]")
        checks.require(
            math.isclose(sum(leaf["n"] for leaf in leaves), n)
            and math.isclose(sum(leaf["events"] for leaf in leaves), float(event.sum())),
            "leaf n / events do not sum to the cohort's totals",
        )
        checks.require(
            all(node["p_adjusted"] <= alpha for node in internal),
            "an internal node has p_adjusted > alpha",
        )

        routed = reference.route_columns(doc, cells)
        predicted = _read_columns(os.path.join(directory, "leaves.csv"))
        checks.require(
            np.array_equal(predicted["row"].astype(int), np.arange(n))
            and np.array_equal(predicted["leaf"].astype(int), routed),
            "predict's leaves differ from the reference router's",
        )
        for leaf in leaves:
            rows = routed == leaf["id"]
            checks.require(
                rows.sum() == leaf["n"], f"leaf {leaf['id']}: {rows.sum()} rows routed, n = {leaf['n']}"
            )
            path = os.path.join(directory, "km", f"leaf_{leaf['id']}.csv")
            if not os.path.exists(path):
                checks.failures.append(f"km wrote no curve for leaf {leaf['id']}")
                continue
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            checks.require(lines[:2] == ["time,survival", "0.0,1.0"], f"{path} lacks the 0.0,1.0 anchor")
            curve = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            ref_t, ref_s = reference.kaplan_meier(time_[rows], event[rows])
            checks.require(bool(np.all(np.diff(curve[:, 1]) <= 0)), f"{path} increases")
            checks.require(
                curve.shape[0] == ref_t.size + 1
                and np.array_equal(curve[1:, 0], ref_t)
                and np.allclose(curve[1:, 1], ref_s, rtol=0, atol=1e-12),
                f"{path} differs from the reference Kaplan-Meier curve",
            )

        with open(os.path.join(directory, "tree.dot"), encoding="utf-8") as fh:
            dot = fh.read()
        checks.require(
            len(re.findall(r"^  n\d+ \[label=", dot, re.M)) == len(nodes)
            and len(re.findall(r"^  n\d+ -> n\d+ ", dot, re.M)) == 2 * len(internal),
            "tree.dot needs one node line per node and two edges per internal node",
        )


def _root_design(doc: dict, cells: dict, name: str) -> np.ndarray:
    """A covariate's selection design at the root, from its CSV cells."""
    meta = next(c for c in doc["config"]["covariates"] if c["name"] == name)
    if meta["kind"] == "numeric":
        return reference.midranks(cells[name].astype(float))
    position = {level: i for i, level in enumerate(meta["levels"])}
    return reference.onehot([position[cell] for cell in cells[name]], len(position))


def _read_columns(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    table = np.array(rows, dtype=str)
    return {name: table[:, i] for i, name in enumerate(header)}


# -- mc-529 and study-529: many paper-sized cohorts through the library -----


@dataclass
class CohortResult:
    config: SimConfig
    root: object  # survtree TreeNode of the root, None if the cohort failed


class LibraryStudy:
    """simulate_cohort -> fit -> canonical document and DOT -> predict_node
    for every row -> km_estimate per leaf, over a fixed list of n=529
    cohorts taken `chunk` cohorts at a time. Each chunk goes through all
    five stages before the next one starts, so every stage's time in a round
    is summed over slices spread across the whole round rather than taken in
    one window of a machine whose speed drifts. A stage of a few
    milliseconds per chunk runs `passes[stage]` times and counts the mean
    seconds per pass."""

    def __init__(self, cohorts: list[SimConfig], fit_config: FitConfig, chunk: int, passes: dict):
        self.cohorts = cohorts
        self.chunks = [cohorts[i:i + chunk] for i in range(0, len(cohorts), chunk)]
        self.fit_config = fit_config
        self.passes = passes

    def _pass(self, stage, func, items, tracer):
        def run():
            return [None if item is None else _attempt(func, item) for item in items]

        return _timed(stage, tracer, run, 1, self.passes.get(stage, 1))

    def warm_up(self) -> None:
        fast = self.fit_config
        if fast.test.name == "montecarlo":
            fast = dataclasses.replace(fast, test=TestMethod("montecarlo", 99, fast.test.seed))
        for cfg in self.cohorts[:4]:
            dataset = survtree.simulate_cohort(cfg)
            tree = survtree.fit(dataset, fast)
            _export(tree)
            _km((dataset, _predict((dataset, tree))))

    def round(self, tracer=None) -> Round:
        seconds = dict.fromkeys(("simulate", "fit", "export", "predict", "km"), 0.0)
        digest = hashlib.sha256()
        failed = 0
        results = []
        for chunk in self.chunks:
            spent, datasets = self._pass("simulate", lambda cfg: survtree.simulate_cohort(cfg), chunk, tracer)
            seconds["simulate"] += spent
            spent, trees = self._pass("fit", lambda ds: survtree.fit(ds, self.fit_config), datasets, tracer)
            seconds["fit"] += spent
            spent, texts = self._pass("export", _export, trees, tracer)
            seconds["export"] += spent
            pairs = [None if t is None else (d, t) for d, t in zip(datasets, trees)]
            spent, leaves = self._pass("predict", _predict, pairs, tracer)
            seconds["predict"] += spent
            pairs = [None if lv is None else (d, lv) for d, lv in zip(datasets, leaves)]
            spent, curves = self._pass("km", _km, pairs, tracer)
            seconds["km"] += spent

            for text, lv, curve in zip(texts, leaves, curves):
                if curve is None:
                    failed += 1
                    continue
                digest.update(text.encode())
                digest.update(lv.tobytes())
                digest.update(repr(curve).encode())
            results += [
                CohortResult(cfg, None if tree is None else tree.root) for cfg, tree in zip(chunk, trees)
            ]
        return Round(seconds, len(self.cohorts), failed, digest.hexdigest(), results)

    def memory_subject(self, first: Round):
        dataset = survtree.simulate_cohort(self.cohorts[0])
        return lambda: survtree.fit(dataset, self.fit_config)


def _attempt(func, item):
    try:
        return func(item)
    except (DataError, FitError):
        return None


def _export(tree) -> str:
    doc = treedoc.tree_to_document(tree, "time", "event")
    return treedoc.dumps_canonical(doc) + "\n" + treedoc.document_to_dot(doc)


def _predict(pair) -> np.ndarray:
    dataset, tree = pair
    names = [c.name for c in dataset.covariates]
    columns = [
        c.values.tolist() if c.kind == NUMERIC else [c.levels[i] for i in c.values.tolist()]
        for c in dataset.covariates
    ]
    return np.array([survtree.predict_node(tree, dict(zip(names, row))) for row in zip(*columns)])


def _km(pair) -> list:
    dataset, leaves = pair
    time_, event = dataset.response.time, dataset.response.event
    return [
        survtree.km_estimate(time_[leaves == leaf], event[leaves == leaf]).steps
        for leaf in np.unique(leaves)
    ]


def _designs(dataset) -> list[np.ndarray]:
    """Each covariate's root selection design: midranks for numerics,
    one-hot over the declared levels for categoricals."""
    return [
        reference.midranks(c.values) if c.kind == NUMERIC else reference.onehot(c.values, len(c.levels))
        for c in dataset.covariates
    ]


class MonteCarloFits(LibraryStudy):
    """A few planted n=529 cohorts fitted with TestMethod("montecarlo", 9999,
    seed). max_depth=1 tests exactly one node per cohort, so the work is the
    same for every seed."""

    name = "mc-529"
    n_cohorts = 2
    replicates = 9999

    def __init__(self, seed: int, workdir: str):
        cohorts = [SimConfig(seed=seed * 1000 + k) for k in range(1, self.n_cohorts + 1)]
        config = FitConfig(max_depth=1, test=TestMethod("montecarlo", self.replicates, seed))
        # one cohort per chunk: the short stages are timed between fits
        super().__init__(cohorts, config, 1, {"simulate": 100, "export": 20, "predict": 100, "km": 1000})
        self.seed = seed

    def check(self, first: Round, checks: Checks) -> None:
        B = self.replicates
        for result in first.summary:
            if result.root is None:
                continue
            tests = result.root.tests
            dataset = survtree.simulate_cohort(result.config)
            scores = reference.logrank_scores(dataset.response.time, dataset.response.event)
            designs = _designs(dataset)
            rng = np.random.default_rng([self.seed, result.config.seed])
            p_ref = reference.permutation_pvalues(designs, scores, B, rng)
            for test, design, p in zip(tests, designs, p_ref):
                where = f"cohort {result.config.seed} {test.covariate}"
                hits = test.p_raw * (B + 1)
                checks.require(
                    abs(hits - round(hits)) < 1e-6 and 1 <= round(hits) <= B + 1,
                    f"{where}: p_raw * (B + 1) = {hits} is not an integer in [1, B + 1]",
                )
                checks.require(
                    test.p_adjusted == min(1.0, len(tests) * test.p_raw),
                    f"{where}: p_adjusted {test.p_adjusted} != min(1, m * p_raw)",
                )
                ref = reference.c_max(design, scores)
                checks.require(_close(test.c_max, ref), f"{where}: c_max {test.c_max} vs reference {ref}")
                se = math.sqrt(p * (1 - p) * 2 / B)
                checks.require(
                    abs(test.p_raw - p) <= 4 * se + 1 / (B + 1),
                    f"{where}: Monte-Carlo p {test.p_raw} vs reference permutation p {p}",
                )


class SimulationStudy(LibraryStudy):
    """n=529 cohorts fitted with the asymptotic test, alternating planted
    MELD-16 cohorts (hazard ratio 3) and null cohorts (hazard ratio 1)."""

    name = "study-529"
    n_cohorts = 600

    def __init__(self, seed: int, workdir: str):
        cohorts = [
            SimConfig(seed=seed * 100_000 + i, hazard_ratio=3.0 if i % 2 == 0 else 1.0)
            for i in range(self.n_cohorts)
        ]
        super().__init__(cohorts, FitConfig(), 30, {})

    def check(self, first: Round, checks: Checks) -> None:
        done = [r for r in first.summary if r.root is not None]
        planted = [r for r in done if r.config.hazard_ratio != 1.0]
        null = [r for r in done if r.config.hazard_ratio == 1.0]
        on_meld = [r for r in planted if not r.root.is_leaf and r.root.split.covariate == "meld"]
        near_16 = [r for r in on_meld if 15.0 <= r.root.split.cutoff <= 17.0]
        checks.require(
            len(on_meld) >= 0.95 * len(planted),
            f"planted cohorts split on meld at the root in {len(on_meld)}/{len(planted)} (need >= 95%)",
        )
        checks.require(
            len(near_16) >= 0.90 * len(planted),
            f"planted root cut-off in [15, 17] in {len(near_16)}/{len(planted)} (need >= 90%)",
        )
        bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / max(1, len(null)))
        split = sum(not r.root.is_leaf for r in null)
        checks.require(
            split <= bound * len(null), f"null cohorts split in {split}/{len(null)} (bound {bound:.4f})"
        )
        for r in done:
            dataset = survtree.simulate_cohort(r.config)
            scores = reference.logrank_scores(dataset.response.time, dataset.response.event)
            ref = reference.c_max(reference.midranks(dataset.covariate("meld").values), scores)
            got = next(t.c_max for t in r.root.tests if t.covariate == "meld")
            checks.require(_close(got, ref), f"cohort {r.config.seed}: root meld c_max {got} vs reference {ref}")


WORKLOADS = {w.name: w for w in (CohortPipeline, MonteCarloFits, SimulationStudy)}
