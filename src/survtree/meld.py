"""MELD scoring and a seed-deterministic synthetic waitlist cohort generator.

The generator plants a piecewise-constant proportional-hazards structure: a
single hazard jump for MELD at or above a threshold (default 16, ratio 3),
with optional secondary multipliers for young age and hepatocellular
carcinoma. Censoring times are exponential with a rate calibrated (by
bisection, no randomness) so the expected event fraction matches the target;
the bisection stops at its fixed point, within 200 steps, and its rate equals
the full 200-step loop's bit for bit.
Because the hazard jumps exactly at the threshold, the log-rank-optimal
cut-point of the planted covariate IS the threshold, which makes recovery a
sharp test for the tree fitter.

All randomness flows from one numpy Philox stream keyed by the seed, with a
fixed draw order (sex, age, blood type, BMI, etiology, HCC, MELD or labs,
survival times, censoring times), so equal seeds give byte-identical cohorts.

Default cohort mix: n=529, 61% male, age ~ Normal(51, 13) clipped to
[18, 85], etiology hepatitis C 47% / alcoholic 17% / cryptogenic 10% /
other 26%, 64% censoring target. MELD is drawn as 6 + Gamma(3.2, 3.1)
clipped to [6, 40] (roughly: mean 16, spread 5.5), or, in labs mode, computed
from lognormal bilirubin/INR/creatinine through the score formula itself.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, NUMERIC, Covariate, Dataset, SurvivalResponse
from .errors import DataError

MELD_RANGE = (6.0, 40.0)
_MELD_GAMMA_SHAPE = 3.2
_MELD_GAMMA_SCALE = 3.1
_AGE_RANGE = (18.0, 85.0)
_BMI_RANGE = (15.0, 50.0)


@dataclass(frozen=True)
class MeldRecord:
    """Lab inputs to the MELD score. etiology_flag is 0 for cholestatic or
    alcoholic disease, 1 otherwise."""

    bilirubin: float
    inr: float
    creatinine: float
    etiology_flag: int


def meld_score(r: MeldRecord, clamp: bool = False) -> float:
    """3.8*ln(bilirubin) + 11.2*ln(INR) + 9.6*ln(creatinine) + 6.4*flag.

    Lab values must be positive. With clamp=True, labs below 1.0 are raised
    to 1.0 first (the floor used in allocation practice); off by default, the
    formula is evaluated exactly as printed.
    """
    if r.etiology_flag not in (0, 1):
        raise DataError(f"etiology_flag must be 0 or 1, got {r.etiology_flag!r}")
    labs = [float(r.bilirubin), float(r.inr), float(r.creatinine)]
    if any(not math.isfinite(v) or v <= 0 for v in labs):
        raise DataError(f"lab values must be positive: {labs}")
    if clamp:
        labs = [max(1.0, v) for v in labs]
    return _meld(*labs, r.etiology_flag)


def _meld(bilirubin: float, inr: float, creatinine: float, etiology_flag: int) -> float:
    """The MELD formula on positive, finite labs and a 0/1 flag, unchecked."""
    return 3.8 * math.log(bilirubin) + 11.2 * math.log(inr) + 9.6 * math.log(creatinine) + 6.4 * etiology_flag


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the synthetic cohort. age_effect, when set, is a
    (threshold, hazard ratio) pair multiplying the hazard for age at or below
    the threshold; hcc_effect_ratio multiplies it for HCC carriers."""

    n: int = 529
    seed: int = 1
    meld_threshold: float = 16.0
    hazard_ratio: float = 3.0
    base_hazard: float = 5e-4  # events per day
    censor_fraction_target: float = 0.64
    male_fraction: float = 0.61
    age_mean: float = 51.0
    age_sd: float = 13.0
    bmi_mean: float = 26.0
    bmi_sd: float = 4.0
    hcc_prevalence: float = 0.10
    etiology_probs: tuple[tuple[str, float], ...] = (
        ("alcoholic", 0.17),
        ("cryptogenic", 0.10),
        ("hepatitis_c", 0.47),
        ("other", 0.26),
    )
    blood_probs: tuple[tuple[str, float], ...] = (
        ("A", 0.40),
        ("AB", 0.04),
        ("B", 0.11),
        ("O", 0.45),
    )
    age_effect: tuple[float, float] | None = None
    hcc_effect_ratio: float | None = None
    labs_mode: bool = False

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not all(math.isfinite(x) for x in _floats(value)):
                raise DataError(f"{f.name} must be finite, got {value!r}")
        if self.n < 2:
            raise DataError(f"cohort size must be >= 2, got {self.n}")
        if not 0 <= self.seed < 2**128:  # a Philox key
            raise DataError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.hazard_ratio <= 0 or self.base_hazard <= 0:
            raise DataError("hazard_ratio and base_hazard must be positive")
        if not 0.0 < self.censor_fraction_target < 1.0:
            raise DataError(
                f"censor_fraction_target must be in (0, 1), got {self.censor_fraction_target}"
            )
        for frac in (self.male_fraction, self.hcc_prevalence):
            if not 0.0 <= frac <= 1.0:
                raise DataError(f"fractions must be in [0, 1], got {frac}")
        if self.age_sd <= 0 or self.bmi_sd <= 0:
            raise DataError("age_sd and bmi_sd must be positive")
        for probs in (self.etiology_probs, self.blood_probs):
            total = sum(p for _, p in probs)
            if abs(total - 1.0) > 1e-9 or any(p < 0 for _, p in probs):
                raise DataError(f"level probabilities must be >= 0 and sum to 1: {probs}")
        if self.age_effect is not None and self.age_effect[1] <= 0:
            raise DataError("age effect ratio must be positive")
        if self.hcc_effect_ratio is not None and self.hcc_effect_ratio <= 0:
            raise DataError("hcc effect ratio must be positive")


def _floats(value) -> list[float]:
    """The floats a config value holds, inside tuples too."""
    if isinstance(value, tuple):
        return [x for v in value for x in _floats(v)]
    return [value] if isinstance(value, float) else []


def _draw_levels(rng: np.random.Generator, probs: tuple[tuple[str, float], ...], n: int):
    """Level indices via one uniform draw per observation (searchsorted on
    the cumulative distribution, so the stream use is explicit and fixed)."""
    cum = np.cumsum([p for _, p in probs])
    u = rng.random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1).astype(np.int64)


def _censoring_rate(hazards: np.ndarray, event_target: float) -> float:
    """Exponential censoring rate mu with mean_i lambda_i/(lambda_i + mu)
    equal to the target event fraction, found by bisection on log10(mu).

    Each step is a function of (lo, hi) alone, so the first step that leaves
    both unchanged repeats forever: the loop stops there, within its bound of
    200 steps (about 60 in practice), and returns the float the full 200
    steps return, bit for bit. The mean is the pairwise sum over one division
    by n, exactly as np.mean takes it.
    """
    n = hazards.size

    def frac(mu: float) -> float:
        return float(np.add.reduce(hazards / (hazards + mu))) / n

    lo, hi = 1e-12, 1e6
    if not (frac(lo) >= event_target >= frac(hi)):
        raise DataError(
            f"censoring target {1 - event_target:.3f} infeasible for these hazards"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if frac(mid) > event_target:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return math.sqrt(lo * hi)


def simulate_cohort(cfg: SimConfig) -> Dataset:
    """Generate the synthetic cohort described by `cfg`.

    Covariate columns, in order: sex, age, blood_type, bmi, etiology, hcc,
    meld. Survival times are exponential per the planted hazard structure;
    the event flag compares them against independent exponential censoring.
    """
    cfg.validate()
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed)))
    n = cfg.n

    sex_idx = (rng.random(n) < cfg.male_fraction).astype(np.int64)  # 1 = male
    age = np.clip(rng.normal(cfg.age_mean, cfg.age_sd, n), *_AGE_RANGE)
    blood_idx = _draw_levels(rng, cfg.blood_probs, n)
    bmi = np.clip(rng.normal(cfg.bmi_mean, cfg.bmi_sd, n), *_BMI_RANGE)
    etio_idx = _draw_levels(rng, cfg.etiology_probs, n)
    hcc_idx = (rng.random(n) < cfg.hcc_prevalence).astype(np.int64)  # 1 = yes

    etio_levels = tuple(name for name, _ in cfg.etiology_probs)
    if cfg.labs_mode:
        bili = np.exp(rng.normal(0.55, 0.55, n))
        inr = np.exp(rng.normal(0.25, 0.22, n))
        creat = np.exp(rng.normal(0.05, 0.30, n))
        flags = np.where(np.array(etio_levels)[etio_idx] == "alcoholic", 0, 1)
        # lognormal labs are positive and finite, so meld_score's checks are moot
        meld = np.array(list(map(_meld, bili.tolist(), inr.tolist(), creat.tolist(), flags.tolist())))
        meld = np.clip(meld, *MELD_RANGE)
    else:
        meld = np.clip(
            MELD_RANGE[0] + rng.gamma(_MELD_GAMMA_SHAPE, _MELD_GAMMA_SCALE, n), *MELD_RANGE
        )

    hazards = np.full(n, cfg.base_hazard)
    hazards = np.where(meld >= cfg.meld_threshold, hazards * cfg.hazard_ratio, hazards)
    if cfg.age_effect is not None:
        thr, ratio = cfg.age_effect
        hazards = np.where(age <= thr, hazards * ratio, hazards)
    if cfg.hcc_effect_ratio is not None:
        hazards = np.where(hcc_idx == 1, hazards * cfg.hcc_effect_ratio, hazards)

    mu = _censoring_rate(hazards, 1.0 - cfg.censor_fraction_target)
    t_event = rng.exponential(1.0 / hazards)
    t_censor = rng.exponential(1.0 / mu, n)
    time = np.minimum(t_event, t_censor)
    event = t_event <= t_censor

    covariates = (
        Covariate("sex", CATEGORICAL, sex_idx, levels=("female", "male")),
        Covariate("age", NUMERIC, age),
        Covariate("blood_type", CATEGORICAL, blood_idx, levels=tuple(b for b, _ in cfg.blood_probs)),
        Covariate("bmi", NUMERIC, bmi),
        Covariate("etiology", CATEGORICAL, etio_idx, levels=etio_levels),
        Covariate("hcc", CATEGORICAL, hcc_idx, levels=("no", "yes")),
        Covariate("meld", NUMERIC, meld),
    )
    return Dataset(covariates, SurvivalResponse(time, event))


# flat key=value config files for the CLI; values use the same spellings as
# the command-line flags
CONFIG_KEYS = {
    "n": int,
    "seed": int,
    "meld_threshold": float,
    "hazard_ratio": float,
    "base_hazard": float,
    "censor_fraction_target": float,
    "male_fraction": float,
    "age_mean": float,
    "age_sd": float,
    "bmi_mean": float,
    "bmi_sd": float,
    "hcc_prevalence": float,
    "age_effect_threshold": float,
    "age_effect_ratio": float,
    "hcc_effect_ratio": float,
    "labs_mode": bool,
}
_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat key=value file ('#' starts a comment)."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return out


def simconfig_from_strings(raw: dict[str, str]) -> SimConfig:
    """Build a SimConfig from string-valued settings (config file / flags)."""
    kwargs: dict = {}
    age_thr = age_ratio = None
    for key, value in raw.items():
        if key not in CONFIG_KEYS:
            raise DataError(f"unknown config key {key!r}")
        caster = CONFIG_KEYS[key]
        try:
            parsed = _SWITCH[value.strip().lower()] if caster is bool else caster(value)
        except (KeyError, ValueError) as exc:
            raise DataError(f"config key {key!r}: bad value {value!r}") from exc
        if key == "age_effect_threshold":
            age_thr = parsed
        elif key == "age_effect_ratio":
            age_ratio = parsed
        else:
            kwargs[key] = parsed
    if (age_thr is None) != (age_ratio is None):
        raise DataError("age_effect_threshold and age_effect_ratio must be set together")
    if age_thr is not None:
        kwargs["age_effect"] = (age_thr, age_ratio)
    return SimConfig(**kwargs)
