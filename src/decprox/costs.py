"""Per-agent smooth costs, curvature constants, and data handling.

Each cost family builds one stacked gradient at construction, so the
engine's one gradient per iteration is a single vectorised kernel over
the K x M stack, and the reference solver's average gradient is that
kernel on K copies of one point.  No cost is evaluated, only its
gradient; the per-agent costs and gradients the kernels are checked
against live with the tests.
"""

from dataclasses import dataclass
from itertools import islice

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

__all__ = [
    "SmoothCostSet",
    "Dataset",
    "quadratic_cost",
    "logistic_cost",
    "partition_data",
    "synthetic_classification",
    "read_libsvm",
]

# Data lines read_libsvm converts per numpy call.  A bad line costs one
# more conversion of its block, not of the file, and a block's tokens are
# all of the text held at once: on a 2-vCPU Xeon, 64-line blocks read a
# 20,000-line file of 75 nonzeros a line as fast as one block does, at a
# third of its peak memory.
LIBSVM_BLOCK = 64


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
        G = self.grad_stack(np.tile(w, (self.K, 1)))
        # An accumulate adds row by row whatever the stack's layout, where
        # a reduce sums a contiguous axis pairwise.  Adding 0.0 last turns a
        # sum of negative zeros into +0.0, as a sum started at 0.0 does.
        return (np.add.accumulate(G, axis=0)[-1] + 0.0) / self.K


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


def logistic_cost(shards, lam):
    """Ridge-regularized logistic losses over per-agent data shards.

    J_k(w) = (1/L_k) sum_l log(1 + exp(-y x'w)) + (lam/2)||w||^2.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    for k, d in enumerate(shards):
        if len(d) == 0:
            raise ValueError(f"shard {k} is empty")
    Xb = _block_diagonal(shards)
    XbT = Xb.T.tocsr()
    nu, delta = _logistic_constants(Xb, XbT, shards, lam)
    return SmoothCostSet(_stacked_logistic_grad(Xb, XbT, shards, lam),
                         nu=nu, delta=delta, K=len(shards), M=shards[0].M)


def _block_diagonal(shards):
    """The N x (K M) design matrix whose row block k holds shard k's
    features in columns k M .. (k+1) M - 1, entry order kept."""
    K, M = len(shards), shards[0].M
    Xs = [sp.csr_matrix(d.features) for d in shards]
    row_nnz = np.concatenate([np.diff(X.indptr) for X in Xs])
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    indices = np.concatenate([X.indices + k * M for k, X in enumerate(Xs)])
    data = np.concatenate([X.data for X in Xs])
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, K * M))


def _stacked_logistic_grad(Xb, XbT, shards, lam):
    """All agents' logistic gradients from the block-diagonal design matrix.

    Each margin and each gradient entry sums the same products in the same
    order as the per-agent gradient X_k' coef_k + lam w, so the two agree
    bit for bit.  Margins, sigmoids and coefficients share one buffer, the
    matvec's output: the operations of -y * expit(-y * (X w)) / L in their
    order, with -y formed once and each product's operands swapped.
    """
    K, M = len(shards), shards[0].M
    ny = -np.concatenate([d.labels for d in shards])
    # Each sample's shard size: the per-agent gradient divides by it, and
    # a multiply by its reciprocal would not round the same way.
    L = np.repeat([float(len(d)) for d in shards], [len(d) for d in shards])

    def stack_grad(W):
        coef = Xb @ W.ravel()
        coef *= ny
        expit(coef, out=coef)
        coef *= ny
        coef /= L
        G = (XbT @ coef).reshape(K, M)
        G += lam * W
        return G

    return stack_grad


def _logistic_constants(Xb, XbT, shards, lam):
    """nu = lam and delta = lam + max_k ||X_k'X_k||_2 / (4 L_k): the
    per-sample logistic Hessian is bounded by (1/4) x x'.

    One product Xb'Xb holds every shard's Gram matrix as a diagonal block.
    Each entry of block k sums shard k's samples in their order, as
    X_k'X_k does, so each block equals it bit for bit; blocks are made
    dense one at a time.
    """
    M = shards[0].M
    gram = XbT @ Xb
    worst = 0.0
    for k, d in enumerate(shards):
        block = gram[k * M:(k + 1) * M, k * M:(k + 1) * M].toarray()
        worst = max(worst, np.linalg.norm(block, ord=2) / (4.0 * len(d)))
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
    """Read LIBSVM sparse text into a Dataset.

    Everything from a ``#`` to the end of its line is a comment; a line
    left blank is skipped.  Every other line is a label followed by
    ``idx:val`` tokens, split on any whitespace: the label a float, idx an
    integer of 1 or more (column idx - 1), val a float.  A line may hold
    no token, and indices may repeat (their values add) and come in any
    order; the widest index sets the column count.  ``label_map`` is an
    optional (raw_pos, raw_neg) pair mapped to +1/-1; without it, raw
    labels must already be in {-1, +1} (0 maps to -1).  ``normalize``
    scales every nonzero row to unit 2-norm.  A NaN or infinite value
    raises ValueError ``path holds a non-finite feature value``, checked
    before any sum or scaling (scaling would zero an infinite row).

    The labels, indices and values of ``LIBSVM_BLOCK`` data lines at a
    time are each converted in one numpy call (:func:`_convert`).  If a
    block fails, its lines are converted one at a time
    (:func:`_first_bad_line`), and ValueError ``path:line: ...`` names
    the first bad line in file order; within it the label comes first,
    then the tokens in order.
    """
    lines = _data_lines(path)
    blocks = [_convert([], label_map)]  # typed and empty, for an empty file
    while block := list(islice(lines, LIBSVM_BLOCK)):
        if (converted := _convert(block, label_map)) is None:
            raise ValueError(f"{path}:{_first_bad_line(block, label_map)}")
        blocks.append(converted)
    labels, counts, idx, vals = map(np.concatenate, zip(*blocks))
    del blocks
    if not np.isfinite(vals).all():
        raise ValueError(f"{path} holds a non-finite feature value")
    X = sp.csr_matrix((vals, idx - 1, np.concatenate([[0], counts.cumsum()])),
                      shape=(len(labels), int(idx.max(initial=0))))
    X.sum_duplicates()
    if normalize:
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        norms[norms == 0] = 1.0
        X = sp.diags(1.0 / norms) @ X
        X = sp.csr_matrix(X)
    return Dataset(X, labels)


def _data_lines(path):
    """(line number, tokens) for each line of the LIBSVM file at ``path``
    that holds a token once its comment is cut."""
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            toks = line.split("#", 1)[0].split()
            if toks:
                yield lineno, toks


def _convert(lines, label_map):
    """(labels as +-1, tokens per line, indices, values) of a list of
    (line number, tokens) data lines, each field converted in one numpy
    call; None if one fails, a token holds other than one ``:``, an index
    is below 1 or a label does not map."""
    counts = np.array([len(toks) - 1 for _, toks in lines], dtype=np.int64)
    text = " ".join([" ".join(toks[1:]) for _, toks in lines if len(toks) > 1])
    try:
        labels, mapped = _map_labels(
            np.array([toks[0] for _, toks in lines], dtype=float), label_map)
        parts = text.replace(" ", ":").split(":") if text else []
        idx = np.array(parts[0::2], dtype=np.int64)
        vals = np.array(parts[1::2], dtype=float)
    except (ValueError, OverflowError):
        return None
    if (mapped.all() and _one_colon_each(text, int(counts.sum()))
            and (idx >= 1).all()):
        return labels, counts, idx, vals
    return None


def _first_bad_line(lines, label_map):
    """``line: message`` for the first bad one of a list of (line number,
    tokens) data lines: each line converted by :func:`_convert`, and the
    label and the tokens of the first that fails one at a time."""
    for lineno, toks in lines:
        if _convert([(lineno, toks)], label_map) is not None:
            continue
        try:
            raw = np.array(toks[:1], dtype=float)
        except (ValueError, OverflowError):
            return f"{lineno}: bad label {toks[0]!r}"
        if not _map_labels(raw, label_map)[1][0]:
            need = (f"not in map {label_map}" if label_map is not None
                    else "needs an explicit label_map")
            return f"{lineno}: label {float(raw[0])} {need}"
        for tok in toks[1:]:
            try:
                i, v = tok.split(":")  # ValueError unless exactly one ":"
                idx = np.array([i], dtype=np.int64)
                np.array([v], dtype=float)
            except (ValueError, OverflowError):
                return f"{lineno}: bad feature {tok!r}"
            if idx[0] < 1:
                return f"{lineno}: indices are 1-based, got {idx[0]}"


def _one_colon_each(text, n_tokens):
    """Whether each of the n_tokens space-separated tokens of ``text``
    holds exactly one ``:``.  Read from the UTF-8 bytes, where neither
    byte occurs inside a multibyte character."""
    joined = np.frombuffer(text.encode(), dtype=np.uint8)
    colons = np.flatnonzero(joined == ord(":"))
    ends = np.flatnonzero(joined == ord(" "))
    return bool(len(colons) == n_tokens and (colons[:-1] < ends).all()
                and (colons[1:] > ends).all())


def _map_labels(raw, label_map):
    """Raw labels as +-1, and a mask of those that map."""
    if label_map is not None:
        pos, neg = label_map
        is_pos = raw == pos
        return np.where(is_pos, 1.0, -1.0), is_pos | (raw == neg)
    ok = (raw == 1.0) | (raw == -1.0) | (raw == 0.0)
    return np.where(raw == 0.0, -1.0, raw), ok
