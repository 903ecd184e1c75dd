"""The prior statistic as one rejection per query: the oracle for the blocked kernel.

`gof.d_prior` and `gof.null_distribution_prior` compute these values with
`rejection.mean_accepted_distances`; the tests compare their bytes with the
functions here.
"""

import numpy as np

from abcgof import reject


def d_prior_oracle(table, observed, scaling, rate, exclude=None) -> float:
    """Mean distance of the rows `reject` accepts for `observed`."""
    return float(reject(table, observed, scaling, rate, exclude=exclude).distances.mean())


def null_prior_oracle(table, scaling, rate, M, seed) -> np.ndarray:
    """One leave-one-out rejection per pseudo-observed row, rows as the seed layout chooses them."""
    rows = np.arange(table.n) if M == table.n else np.random.default_rng(seed).choice(
        table.n, size=M, replace=False
    )
    return np.array(
        [d_prior_oracle(table, table.stats[r], scaling, rate, exclude=int(r)) for r in rows]
    )
