"""A two-proportion z test, for comparing rejection rates in the acceptance tests."""

import numpy as np


def one_sided_two_proportion_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """P-value for H1: proportion 1 > proportion 2 (z test, one proportion under H0)."""
    from scipy import stats as sps

    p1, p2 = k1 / n1, k2 / n2
    common = (k1 + k2) / (n1 + n2)
    se = np.sqrt(common * (1 - common) * (1 / n1 + 1 / n2))
    if se == 0:
        return 1.0
    return float(sps.norm.sf((p1 - p2) / se))
