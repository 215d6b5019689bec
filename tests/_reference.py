"""Frozen reference values and reference computations shared across test modules.

``REFERENCE_GRID`` is the published 18-specification comparison for the
1969-2017 U.S. mathematics degree series (NCES data): columns are
(deg_gamma, deg_rho, forcing, k, sse, aic, delta_aic, bic, delta_bic),
in published rank order.  SSE values are rounded to 3 decimals, so
criteria recomputed from them match the published AIC/BIC to about
+/- 0.5.

``fd_hessian`` is the second-difference Hessian of any scalar function,
the reference for ``numerical_hessian``.
"""

import numpy as np

from flowfit.estimation import _symmetrized

REFERENCE_GRID = [
    (2, 2, False, 15, 0.129, -619.7, 0.0, -581.0, 0.0),
    (2, 2, True, 16, 0.129, -617.7, 2.0, -576.4, 4.6),
    (1, 2, False, 13, 0.170, -597.2, 22.5, -563.6, 17.3),
    (1, 2, True, 14, 0.170, -594.8, 24.9, -558.6, 22.4),
    (2, 1, False, 12, 0.229, -569.8, 50.0, -538.7, 42.2),
    (2, 1, True, 13, 0.229, -567.8, 52.0, -534.1, 46.8),
    (1, 1, False, 10, 0.297, -548.4, 71.3, -522.6, 58.4),
    (1, 1, True, 11, 0.297, -546.4, 73.3, -518.0, 62.9),
    (0, 2, False, 11, 0.299, -545.7, 74.1, -517.2, 63.7),
    (0, 2, True, 12, 0.299, -543.7, 76.1, -512.7, 68.3),
    (0, 1, False, 8, 0.656, -474.6, 145.1, -454.0, 127.0),
    (0, 1, True, 9, 0.656, -472.6, 147.1, -449.4, 131.6),
    (2, 0, False, 9, 0.684, -468.5, 151.2, -445.3, 135.7),
    (2, 0, True, 10, 0.684, -466.5, 153.2, -440.7, 140.3),
    (0, 0, False, 5, 6.028, -263.3, 356.5, -250.3, 330.6),
    (0, 0, True, 6, 6.028, -261.3, 358.5, -245.8, 335.2),
    (1, 0, False, 7, 6.029, -259.3, 360.5, -241.2, 339.8),
    (1, 0, True, 8, 6.029, -257.3, 362.5, -236.6, 344.4),
]

N_TOTAL = 98       # 49 master's + 49 PhD observations
N_EFF = 96         # first-year residuals are imposed, not fit
PREFERRED_SSE = 0.129
PREFERRED_K = 15

# Start-year sensitivity reference: start year -> (sse, pooled log rmse)
REFERENCE_TRUNCATION = {
    1974: (0.0899, 0.0320),
    1979: (0.0804, 0.0321),
    1984: (0.0664, 0.0312),
}

# One-step hindcast reference over cutoffs 1990..2015 step 5
REFERENCE_HINDCAST = {"m": 0.0723, "p": 0.0735, "pooled": 0.0729}
REFERENCE_CUTOFFS = [1990, 1995, 2000, 2005, 2010, 2015]


def fd_hessian(f, x, rel_step=1e-4):
    """Central second differences of ``f``, symmetrized as (H + H^T)/2.

    1 + 2k^2 values of ``f`` and no gradient, with per-coordinate steps
    ``rel_step * max(1, |x_i|)``; a non-finite entry raises naming its
    coordinate pair, as ``numerical_hessian`` does.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(1.0, np.abs(x))
    e = np.diag(h)
    f0 = f(x)
    hess = np.empty((n, n))
    for i in range(n):
        hess[i, i] = (f(x + e[i]) - 2.0 * f0 + f(x - e[i])) / (h[i] * h[i])
        for j in range(i + 1, n):
            hess[i, j] = hess[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j]) - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * h[i] * h[j])
    return _symmetrized(hess)
