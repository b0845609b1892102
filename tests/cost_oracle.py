"""Per-agent costs and gradients, one closure pair per agent: the reference
the tests check each family's stacked gradient (``SmoothCostSet``) and
its average gradient against.  Each function takes the arguments of the
``decprox.costs`` function of the same name."""

import numpy as np
from scipy.special import expit


class PerAgentCosts:
    """K costs J_k, each given as a pair (J_k, grad J_k) of functions."""

    def __init__(self, pairs):
        self._pairs = pairs
        self.K = len(pairs)

    def eval(self, k, w):
        return self._pairs[k][0](np.asarray(w, dtype=float))

    def grad(self, k, w):
        return self._pairs[k][1](np.asarray(w, dtype=float))

    def grad_stack(self, W):
        """Row k: agent k's gradient at row k of W."""
        return np.stack([self.grad(k, W[k]) for k in range(self.K)])

    def average_grad(self, w):
        """(1/K) sum_k grad J_k(w), one agent at a time."""
        w = np.asarray(w, dtype=float)
        g = np.zeros_like(w)
        for k in range(self.K):
            g += self.grad(k, w)
        return g / self.K


def quadratic_cost(eta, K, M, targets=None):
    """(eta/2)||w - t_k||^2, centred at the origin without ``targets``."""
    targets = np.zeros((K, M)) if targets is None else np.asarray(targets, float)

    def pair(t):
        return (lambda w: 0.5 * eta * float(np.dot(w - t, w - t)),
                lambda w: eta * (w - t))

    return PerAgentCosts([pair(t) for t in targets])


def random_quadratic_cost(K, M, seed=0, nu_min=0.5, delta_max=2.0):
    """(1/2) w'H_k w + b_k'w, with H_k and b_k drawn from ``seed`` as the
    program draws them."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(K):
        Q, _ = np.linalg.qr(rng.standard_normal((M, M)))
        lam = rng.uniform(nu_min, delta_max, size=M)
        lam[0], lam[-1] = nu_min, delta_max
        H = (Q * lam) @ Q.T
        b = rng.standard_normal(M)
        pairs.append((lambda w, H=H, b=b: 0.5 * float(w @ H @ w) + float(b @ w),
                      lambda w, H=H, b=b: H @ w + b))
    return PerAgentCosts(pairs)


def logistic_cost(shards, lam):
    """(1/L_k) sum_l log(1 + exp(-y x'w)) + (lam/2)||w||^2 over shard k."""

    def pair(d):
        X, y, L = d.features, d.labels, len(d)

        def ev(w):
            margins = -y * (X @ w)
            return float(np.logaddexp(0.0, margins).sum()) / L + 0.5 * lam * float(w @ w)

        def gr(w):
            coef = -y * expit(-y * (X @ w)) / L
            return np.asarray(X.T @ coef).ravel() + lam * w

        return ev, gr

    return PerAgentCosts([pair(d) for d in shards])
