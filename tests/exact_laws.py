"""Exact laws and the goodness of fit of the production sampling path to them,
shared by the acceptance suite and the library tests: the library's exact law
of each model's count vector, the moments of a law, count rows drawn by
run_experiment and read back from its --dump file, and a G-test of their
counts against a law given as integer weights."""

from collections import Counter

import numpy as np
from scipy.stats import power_divergence

from condclt import mc_engine, monotone, simulators

# how many of the equiprobable outcomes give each count vector, by model
LAWS = {"alloc": monotone.allocation_count_law, "gnm": monotone.gnm_count_law}


def law_moments(law: dict):
    """Mean vector and covariance matrix of a law given as integer weights."""
    keys = np.array(list(law), dtype=float)
    w = np.array(list(law.values()), dtype=float)
    return (np.average(keys, axis=0, weights=w),
            np.cov(keys, rowvar=False, aweights=w, bias=True))


def sampled_rows(model: str, params: dict, reps: int, seed: int, dump) -> Counter:
    """The raw count rows of one run_experiment run, counted; dump is the path
    of its --dump file."""
    mc_engine.run_experiment(model, params, reps, seed, dump_path=str(dump))
    rows = simulators.load_count_matrix(dump, mc_engine.replicate_dim(model, params))
    return Counter(map(tuple, rows.tolist()))


def g_test_pvalue(observed: Counter, law: dict) -> float:
    """G-test p-value of outcome counts against an exact law given as integer
    weights; outcomes expected fewer than 5 times share one pooled cell."""
    reps, total = sum(observed.values()), sum(law.values())
    expected = {key: reps * w / total for key, w in law.items() if w}
    assert set(observed) <= set(expected), set(observed) - set(expected)
    small = [key for key, e in expected.items() if e < 5]
    cells = [(observed[key], e) for key, e in expected.items() if e >= 5]
    if small:
        cells.append((sum(observed[key] for key in small), sum(expected[key] for key in small)))
    obs, exp = np.array(cells).T
    return power_divergence(obs, exp, lambda_="log-likelihood").pvalue
