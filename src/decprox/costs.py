"""Per-agent smooth costs, curvature constants, and data handling.

Each cost family builds one stacked gradient at construction, so the
engine's one gradient per iteration is a single vectorised kernel over
the K x M stack, and the reference solver's average gradient is that
kernel on K copies of one point.  No cost is evaluated, only its
gradient; the per-agent costs and gradients the kernels are checked
against live with the tests.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "SmoothCostSet",
    "Dataset",
    "quadratic_cost",
    "random_quadratic_cost",
    "logistic_cost",
    "partition_data",
    "synthetic_classification",
    "read_libsvm",
]


@dataclass(frozen=True)
class Dataset:
    """Binary classification samples with sparse features.

    ``features`` is an (N, M) CSR matrix, ``labels`` an N-vector in {-1,+1}.
    """

    features: sp.csr_matrix
    labels: np.ndarray

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label count mismatch")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")

    def __len__(self):
        return self.features.shape[0]

    @property
    def M(self):
        return self.features.shape[1]

    def subset(self, idx):
        return Dataset(self.features[idx], self.labels[idx])


class SmoothCostSet:
    """K per-agent differentiable costs with shared curvature constants.

    Each agent cost is strongly convex with modulus ``nu`` and has
    ``delta``-Lipschitz gradients.  ``grad_stack`` evaluates all agents'
    gradients on a K x M iterate stack, row k at row k, through
    ``stack_grad``, the family's vectorised gradient.  The engine
    evaluates it once per iteration, at the new iterate, and carries the
    result in its state.
    """

    def __init__(self, stack_grad, nu, delta, K, M):
        if not (0 < nu <= delta):
            raise ValueError(f"need 0 < nu <= delta, got nu={nu}, delta={delta}")
        self._stack_grad = stack_grad
        self.nu = float(nu)
        self.delta = float(delta)
        self.K = K
        self.M = M

    def grad_stack(self, W):
        return self._stack_grad(np.asarray(W, dtype=float))

    def average_grad(self, w):
        """(1/K) sum_k grad J_k(w): every agent's gradient at w from one
        ``grad_stack``, added in agent order."""
        w = np.asarray(w, dtype=float)
        g = np.zeros_like(w)
        for row in self.grad_stack(np.tile(w, (self.K, 1))):
            g += row
        return g / self.K


def quadratic_cost(eta, K, M, targets=None):
    """Isotropic quadratics (eta/2)||w - t_k||^2 with nu = delta = eta.

    With ``targets`` omitted every agent is centered at the origin.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if targets is None:
        targets = np.zeros((K, M))
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (K, M):
        raise ValueError(f"targets must have shape ({K},{M})")
    return SmoothCostSet(lambda W: eta * (W - targets),
                         nu=eta, delta=eta, K=K, M=M)


def random_quadratic_cost(K, M, seed=0, nu_min=0.5, delta_max=2.0):
    """Seeded per-agent quadratics (1/2) w'H_k w + b_k'w with spread spectra.

    Every H_k has eigenvalues inside [nu_min, delta_max], so the reported
    constants are exact curvature bounds for the whole family.
    """
    if not (0 < nu_min <= delta_max):
        raise ValueError("need 0 < nu_min <= delta_max")
    rng = np.random.default_rng(seed)
    Hs, bs = [], []
    for _ in range(K):
        Q, _ = np.linalg.qr(rng.standard_normal((M, M)))
        lam = rng.uniform(nu_min, delta_max, size=M)
        lam[0], lam[-1] = nu_min, delta_max  # pin the extremes
        Hs.append((Q * lam) @ Q.T)
        bs.append(rng.standard_normal(M))
    H_stack, b_stack = np.stack(Hs), np.stack(bs)
    return SmoothCostSet(
        lambda W: np.matmul(H_stack, W[:, :, None])[:, :, 0] + b_stack,
        nu=nu_min, delta=delta_max, K=K, M=M)


def logistic_cost(shards, lam):
    """Ridge-regularized logistic losses over per-agent data shards.

    J_k(w) = (1/L_k) sum_l log(1 + exp(-y x'w)) + (lam/2)||w||^2.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    for k, d in enumerate(shards):
        if len(d) == 0:
            raise ValueError(f"shard {k} is empty")
    nu, delta = _logistic_constants(shards, lam)
    return SmoothCostSet(_stacked_logistic_grad(shards, lam),
                         nu=nu, delta=delta, K=len(shards), M=shards[0].M)


def _stacked_logistic_grad(shards, lam):
    """All agents' logistic gradients from one block-diagonal design matrix.

    Row block k of the N x (K M) matrix holds shard k's features in
    columns k M .. (k+1) M - 1, entry order kept, so each margin and each
    gradient entry sums the same products in the same order as the
    per-agent gradient X_k' coef_k + lam w and the two agree bit for bit.
    """
    K, M = len(shards), shards[0].M
    Xs = [sp.csr_matrix(d.features) for d in shards]
    row_nnz = np.concatenate([np.diff(X.indptr) for X in Xs])
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    indices = np.concatenate([X.indices + k * M for k, X in enumerate(Xs)])
    data = np.concatenate([X.data for X in Xs])
    Xb = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, K * M))
    XbT = Xb.T.tocsr()
    y = np.concatenate([d.labels for d in shards])
    # Each sample's shard size: the per-agent gradient divides by it, and
    # a multiply by its reciprocal would not round the same way.
    L = np.repeat([float(len(d)) for d in shards], [len(d) for d in shards])

    def stack_grad(W):
        margins = -y * (Xb @ W.ravel())
        coef = -y * expit(margins) / L
        return (XbT @ coef).reshape(K, M) + lam * W

    return stack_grad


def _logistic_constants(shards, lam):
    # Per-sample logistic Hessian is bounded by (1/4) x x'.
    worst = 0.0
    for d in shards:
        X = d.features
        gram = (X.T @ X).toarray() if sp.issparse(X) else X.T @ X
        worst = max(worst, np.linalg.norm(gram, ord=2) / (4.0 * len(d)))
    return lam, lam + worst


def partition_data(d, K, seed=0):
    """Shuffle and split a dataset into K shards of near-equal size.

    Shard sizes differ by at most one; the union is the dataset and the
    shards are disjoint.  Identical (d, K, seed) give identical shards.
    """
    if len(d) < K:
        raise ValueError(f"need at least K={K} samples, got {len(d)}")
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(d))
    return [d.subset(np.sort(chunk)) for chunk in np.array_split(idx, K)]


def synthetic_classification(n_samples, M, seed=0, flip_prob=0.1):
    """Seeded classification data: unit-normalized normal features, labels
    from a planted hyperplane with a fraction of sign flips."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_samples, M))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    w_true = rng.standard_normal(M)
    y = np.sign(X @ w_true)
    y[y == 0] = 1.0
    flips = rng.random(n_samples) < flip_prob
    y[flips] *= -1.0
    return Dataset(sp.csr_matrix(X), y.astype(float))


def read_libsvm(path, normalize=False, label_map=None):
    """Parse libsvm sparse text: `label idx:val ...` with 1-based indices.

    ``label_map`` is an optional (raw_pos, raw_neg) pair mapped to +1/-1;
    without it, raw labels must already be in {-1, +1} (0 maps to -1).
    """
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
