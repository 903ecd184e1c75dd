"""Random streams and the order-preserving map that runs the Monte Carlo work.

Tasks run serially, in order, in the calling thread. Every task owns a
pre-derived random stream, so its result depends only on its index and the
seed, never on the tasks run before it. All streams come from one master
seed (an int or a ``SeedSequence``) through :func:`children`, which never
mutates its argument, so the same seed always gives the same streams: two
consumers (a table and a null, say) given one seed share streams, so give
them different children of it. The layout, child by child:

- reference table (:func:`abcgof.models.build_reference_table`): row i
  draws its parameters and simulates on child i of the seed;
- prior null (:func:`abcgof.gof.null_distribution_prior`; ``gfit``): the
  seed itself chooses the M pseudo-observed rows (no randomness if M = n);
- posterior null (:func:`abcgof.gof.null_distribution_post`): child 0
  chooses the rows as above, child 1 spawns one stream per null replicate
  j, which draws and simulates all n' posterior replicates of row j;
- :func:`abcgof.gof.gfit_post`: child 0 draws the observed data's n'
  replicates, child 1 seeds the posterior null;
- a study (:mod:`abcgof.harness`): child 0 builds the table, child 1 seeds
  the null, child 2 spawns one stream per dataset, which draws the
  dataset's prior-predictive truth, then (posterior statistic) its replicates.
"""

from __future__ import annotations

import numpy as np


def children(seed, n: int) -> list[np.random.SeedSequence]:
    """The n streams ``SeedSequence(seed).spawn(n)`` gives, without mutating `seed`."""
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]``, run serially.

    `threads` is ignored; it stays only because perfbench's tracer passes it.
    """
    return [fn(item) for item in items]


def seeded_map(fn, seed, n: int) -> list:
    """``[fn(i, rng_i) for i in range(n)]``, rng_i a generator on child i of `seed`."""
    streams = children(seed, n)
    return parallel_map(lambda i: fn(i, np.random.default_rng(streams[i])), range(n))
