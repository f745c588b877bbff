import numpy as np
import pytest

from survtree import CATEGORICAL, NUMERIC, Covariate, Dataset, SurvivalResponse


def make_censored(rng, n, censor_frac=0.4):
    """Random right-censored response with at least one event."""
    time = rng.exponential(100.0, n)
    event = rng.random(n) > censor_frac
    if not event.any():
        event[int(rng.integers(n))] = True
    return np.round(time, 3), event


def make_dataset(rng, n, n_numeric=2, n_categorical=1, censor_frac=0.4):
    """Random mixed-covariate dataset, independent of the response."""
    covs = []
    for j in range(n_numeric):
        covs.append(Covariate(f"x{j}", NUMERIC, rng.normal(size=n)))
    for j in range(n_categorical):
        levels = ("a", "b", "c")
        covs.append(
            Covariate(
                f"c{j}",
                CATEGORICAL,
                rng.integers(0, len(levels), n).astype(np.int64),
                levels=levels,
            )
        )
    time, event = make_censored(rng, n, censor_frac)
    return Dataset(tuple(covs), SurvivalResponse(time, event))


def observation(ds, i):
    """Row i of a Dataset as the mapping predict_node routes."""
    return {
        c.name: float(c.values[i]) if c.kind == NUMERIC else c.levels[int(c.values[i])]
        for c in ds.covariates
    }


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240816))
