"""Per-covariate Monte-Carlo oracle: the permutation test one design at a
time, with one Philox generator built per replicate.

This is the loop the library used before a node's covariates came to share
one permutation set, kept self-contained (numpy only, no library code) so it
can certify the shared engine bit for bit. It follows the same documented
contract: replicate b permutes the weight-expanded scores with the stream
keyed seed + (b+1) * 2^64, degenerate coordinates (variance <= 1e-10) are
skipped, and ties count with the 1e-8 relative slack.
"""

import numpy as np

VAR_TOL = 1e-10
TIE_RTOL = 1e-8
_MASK64 = (1 << 64) - 1


def _moments(g, a, w):
    wsum = w.sum()
    wg = g * w[:, None]
    T = wg.T @ a
    g_sum = wg.sum(axis=0)
    e_hat = float(w @ a) / wsum
    centered = a - e_hat
    v_hat = float(w @ (centered * centered)) / wsum
    mu = e_hat * g_sum
    gram = wg.T @ g
    sigma = (wsum / (wsum - 1.0)) * v_hat * gram - (1.0 / (wsum - 1.0)) * v_hat * np.outer(
        g_sum, g_sum
    )
    return T, mu, sigma


def montecarlo_test(g, a, w, B, seed):
    """(c_max, p) for one design g (n x p), scores a, integer weights w."""
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g.reshape(-1, 1)
    a = np.asarray(a, dtype=float)
    w = np.asarray(w, dtype=float)
    T, mu, sigma = _moments(g, a, w)
    diag = np.diagonal(sigma)
    keep = diag > VAR_TOL
    sd = np.sqrt(np.where(keep, diag, 1.0))
    c_obs = float((np.abs(T[keep] - mu[keep]) / sd[keep]).max()) if keep.any() else 0.0

    slots = np.repeat(np.arange(w.shape[0]), w.astype(np.int64))
    g_exp = g[slots]
    a_exp = a[slots]
    n_exp = slots.shape[0]

    seed = int(seed) & _MASK64
    threshold = c_obs - TIE_RTOL * max(1.0, c_obs)
    hits = 0
    batch = max(1, 2_000_000 // max(1, n_exp))
    for start in range(0, B, batch):
        stop = min(B, start + batch)
        perms = np.empty((stop - start, n_exp), dtype=np.int64)
        for b in range(start, stop):
            rng = np.random.Generator(np.random.Philox(key=seed + ((b + 1) << 64)))
            perms[b - start] = rng.permutation(n_exp)
        T_rep = a_exp[perms] @ g_exp
        z = np.abs(T_rep[:, keep] - mu[keep]) / sd[keep]
        c_rep = z.max(axis=1) if z.shape[1] else np.zeros(T_rep.shape[0])
        hits += int(np.sum(c_rep >= threshold))
    return c_obs, (1.0 + hits) / (B + 1.0)
