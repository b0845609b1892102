"""References for ``decprox.costs``, each function taking the arguments of
the ``decprox.costs`` function of the same name: per-agent costs and
gradients, one closure pair per agent, that each family's stacked
gradient (``SmoothCostSet``) and its average gradient are checked
against; the logistic curvature constants from one Gram matrix per
shard; and a LIBSVM reader that parses one token at a time.  Also the
tests' own stacked family, random quadratics with spread spectra
(:func:`random_quadratic_set`), with its per-agent form
(:func:`random_quadratic_cost`)."""

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from decprox.costs import Dataset, SmoothCostSet


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


def _random_quadratics(K, M, seed, nu_min, delta_max):
    """H_k and b_k of agent k, drawn from ``seed``: H_k with eigenvalues
    inside [nu_min, delta_max], both extremes among them."""
    rng = np.random.default_rng(seed)
    Hs, bs = [], []
    for _ in range(K):
        Q, _ = np.linalg.qr(rng.standard_normal((M, M)))
        lam = rng.uniform(nu_min, delta_max, size=M)
        lam[0], lam[-1] = nu_min, delta_max  # pin the extremes
        Hs.append((Q * lam) @ Q.T)
        bs.append(rng.standard_normal(M))
    return Hs, bs


def random_quadratic_cost(K, M, seed=0, nu_min=0.5, delta_max=2.0):
    """(1/2) w'H_k w + b_k'w, with H_k and b_k drawn from ``seed`` as
    :func:`random_quadratic_set` draws them."""
    pairs = [(lambda w, H=H, b=b: 0.5 * float(w @ H @ w) + float(b @ w),
              lambda w, H=H, b=b: H @ w + b)
             for H, b in zip(*_random_quadratics(K, M, seed, nu_min,
                                                 delta_max))]
    return PerAgentCosts(pairs)


def random_quadratic_set(K, M, seed=0, nu_min=0.5, delta_max=2.0):
    """The quadratics of :func:`random_quadratic_cost` as a stacked
    ``SmoothCostSet``, nu = nu_min and delta = delta_max: a family with
    spread spectra for the tests, which no experiment config builds."""
    Hs, bs = _random_quadratics(K, M, seed, nu_min, delta_max)
    H_stack, b_stack = np.stack(Hs), np.stack(bs)
    return SmoothCostSet(
        lambda W: np.matmul(H_stack, W[:, :, None])[:, :, 0] + b_stack,
        nu=nu_min, delta=delta_max, K=K, M=M)


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


def logistic_constants(shards, lam):
    """(nu, delta) of ``logistic_cost``: lam, and lam plus the largest
    ||X_k'X_k||_2 / (4 L_k), each shard's Gram matrix formed by itself."""
    worst = 0.0
    for d in shards:
        X = d.features
        gram = (X.T @ X).toarray()
        worst = max(worst, np.linalg.norm(gram, ord=2) / (4.0 * len(d)))
    return lam, lam + worst


def read_libsvm(path, normalize=False, label_map=None):
    """Parse libsvm sparse text line by line and token by token."""
    rows, cols, vals, labels = [], [], [], []
    max_col = 0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            toks = line.split()
            try:
                raw = float(toks[0])
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad label {toks[0]!r}") from e
            labels.append(_map_label(raw, label_map, path, lineno))
            for tok in toks[1:]:
                try:
                    idx, val = tok.split(":")
                    idx, val = int(idx), float(val)
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: bad feature {tok!r}") from e
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: indices are 1-based, got {idx}")
                rows.append(len(labels) - 1)
                cols.append(idx - 1)
                vals.append(val)
                max_col = max(max_col, idx)
    X = sp.csr_matrix((vals, (rows, cols)), shape=(len(labels), max_col))
    if normalize:
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        norms[norms == 0] = 1.0
        X = sp.diags(1.0 / norms) @ X
        X = sp.csr_matrix(X)
    return Dataset(X, np.asarray(labels, dtype=float))


def _map_label(raw, label_map, path, lineno):
    if label_map is not None:
        pos, neg = label_map
        if raw == pos:
            return 1.0
        if raw == neg:
            return -1.0
        raise ValueError(f"{path}:{lineno}: label {raw} not in map {label_map}")
    if raw in (1.0, -1.0):
        return raw
    if raw == 0.0:
        return -1.0
    raise ValueError(f"{path}:{lineno}: label {raw} needs an explicit label_map")
