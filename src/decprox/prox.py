"""Proximal operators: l1 soft-thresholding, pairwise-difference chain
regularizers with closed-form proxes, and an exact direct prox of their
sum."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ProxOperator",
    "ZeroProx",
    "L1Prox",
    "CounterexamplePair",
    "CounterexampleProx",
    "ChainSumProx",
    "prox_l1",
    "build_counterexample",
    "prox_counterexample",
    "prox_anchored_chain",
]


# sqrt(2) |w[0] - _ANCHOR| is the anchor term |sqrt(2) w[0] - 1| of R1.
_ANCHOR = 1.0 / np.sqrt(2.0)


def prox_l1(x, kappa):
    """Componentwise soft threshold sgn(x) * max(|x| - kappa, 0)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)


class ProxOperator:
    """Evaluates prox of mu * R at a point; subclasses define apply()."""

    def apply(self, x, mu):
        raise NotImplementedError

    def apply_stack(self, X, mu):
        """Rowwise application on a K x M stack."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([self.apply(row, mu) for row in X])


class ZeroProx(ProxOperator):
    """R = 0; prox is the identity."""

    def apply(self, x, mu):
        return np.asarray(x, dtype=float).copy()

    def apply_stack(self, X, mu):
        return np.atleast_2d(np.asarray(X, dtype=float)).copy()


class L1Prox(ProxOperator):
    """R = weight * ||.||_1."""

    def __init__(self, weight=1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weight = float(weight)

    def apply(self, x, mu):
        return prox_l1(x, mu * self.weight)

    def apply_stack(self, X, mu):
        return prox_l1(np.atleast_2d(X), mu * self.weight)


@dataclass(frozen=True)
class CounterexamplePair:
    """Pairwise-difference operators with D D' = 2I.

    R1(w) = ||D1 w - b1||_1 anchors sqrt(2) w[0] at 1 and penalizes the
    differences (w[1]-w[2]), (w[3]-w[4]), ...; R2(w) = ||D2 w||_1
    penalizes (w[0]-w[1]), (w[2]-w[3]), ....  Both are stored sparse.
    """

    M: int
    D1: sp.csr_matrix = field(repr=False)
    D2: sp.csr_matrix = field(repr=False)
    b1: np.ndarray = field(repr=False)

    # --- fast slicing equivalents of the sparse products -----------------
    def D1_dot(self, w):
        half = self.M // 2
        out = np.empty(half)
        out[0] = np.sqrt(2.0) * w[0]
        out[1:] = w[1 : self.M - 2 : 2] - w[2 : self.M - 1 : 2]
        return out

    def D1T_dot(self, u):
        out = np.zeros(self.M)
        out[0] = np.sqrt(2.0) * u[0]
        out[1 : self.M - 2 : 2] = u[1:]
        out[2 : self.M - 1 : 2] = -u[1:]
        return out

    def D2_dot(self, w):
        return w[0::2] - w[1::2]

    def D2T_dot(self, u):
        out = np.empty(self.M)
        out[0::2] = u
        out[1::2] = -u
        return out

    def R1(self, w):
        return float(np.abs(self.D1_dot(np.asarray(w, dtype=float)) - self.b1).sum())

    def R2(self, w):
        return float(np.abs(self.D2_dot(np.asarray(w, dtype=float))).sum())


def build_counterexample(M):
    """Build the (D1, D2, b1) pairwise-difference structure for even M."""
    if M < 2 or M % 2 != 0:
        raise ValueError(f"M must be even and >= 2, got {M}")
    half = M // 2
    rows, cols, vals = [0], [0], [np.sqrt(2.0)]
    for j in range(1, half):
        rows += [j, j]
        cols += [2 * j - 1, 2 * j]
        vals += [1.0, -1.0]
    D1 = sp.csr_matrix((vals, (rows, cols)), shape=(half, M))
    rows, cols, vals = [], [], []
    for j in range(half):
        rows += [j, j]
        cols += [2 * j, 2 * j + 1]
        vals += [1.0, -1.0]
    D2 = sp.csr_matrix((vals, (rows, cols)), shape=(half, M))
    b1 = np.zeros(half)
    b1[0] = 1.0
    return CounterexamplePair(M=M, D1=D1, D2=D2, b1=b1)


def prox_counterexample(which, pair, x, mu):
    """Closed-form prox of R1 or R2 using D D' = 2I:

    prox(x) = x + (1/(2 mu)) D'[soft(mu D x - mu b, 2 mu^2) - mu D x + mu b]
    """
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    x = np.asarray(x, dtype=float)
    if x.shape != (pair.M,):
        raise ValueError(f"expected shape ({pair.M},), got {x.shape}")
    if which == "R1":
        v = mu * pair.D1_dot(x) - mu * pair.b1
        inner = prox_l1(v, 2.0 * mu * mu) - v
        return x + pair.D1T_dot(inner) / (2.0 * mu)
    if which == "R2":
        v = mu * pair.D2_dot(x)
        inner = prox_l1(v, 2.0 * mu * mu) - v
        return x + pair.D2T_dot(inner) / (2.0 * mu)
    raise ValueError(f"which must be 'R1' or 'R2', got {which!r}")


class CounterexampleProx(ProxOperator):
    """Closed-form prox operator for R1 or R2 of a counterexample pair."""

    def __init__(self, which, pair):
        if which not in ("R1", "R2"):
            raise ValueError(f"which must be 'R1' or 'R2', got {which!r}")
        self.which = which
        self.pair = pair

    def apply(self, x, mu):
        return prox_counterexample(self.which, self.pair, x, mu)


def prox_anchored_chain(x, t, anchor, anchor_t):
    """Exact prox of a 1-D total-variation chain with an anchored first node:

        argmin_z  (1/2) ||z - x||^2 + anchor_t |z[0] - anchor|
                  + t sum_i |z[i] - z[i+1]|.

    Johnson's dynamic programme (JCGS 2013), with the anchor as a virtual
    node pinned at ``anchor``.  The forward pass keeps the derivative of
    each message, a nondecreasing piecewise-linear function, as knots
    (position, slope jump, value jump) in arrays used as a deque; clipping
    it at -t and +t records lo[k] and hi[k], the range z[k] takes given
    z[k+1].  The backward pass sets z[k] = clip(z[k+1], lo[k], hi[k]).
    Each step pushes two knots and pops each at most once, so the cost is
    O(M).
    """
    if t <= 0 or anchor_t < 0:
        raise ValueError(f"need t > 0 and anchor_t >= 0, got {t}, {anchor_t}")
    xs = np.asarray(x, dtype=float).tolist()
    n = len(xs)
    lo, hi = [0.0] * n, [0.0] * n
    # Knots live in pos/da/db[l..r]; the deque grows by one slot at each
    # end per step.  The first message derivative is anchor_t sign(z - anchor).
    pos, da, db = [0.0] * (2 * n + 1), [0.0] * (2 * n + 1), [0.0] * (2 * n + 1)
    l = r = n
    pos[n], db[n] = anchor, 2.0 * anchor_t
    c = anchor_t  # the message derivative is -c left of every knot, +c right
    inf = float("inf")
    for k in range(n):
        # f'(z) = z - x[k] + message'(z): scan from the left for f' = -t
        # (f' = 0 at the last node), then from the right for f' = +t.  A knot
        # at the position just popped bounds a zero-width piece: pop it too.
        lim = -t if k < n - 1 else 0.0
        a, b, p = 1.0, -xs[k] - c, -inf
        while l <= r:
            q = pos[l]
            if a * q + b > lim and q > p:
                break
            a += da[l]
            b += db[l]
            p = q
            l += 1
        left = (lim - b) / a
        if left < p:  # f' jumps across lim at the knot p
            left = p
        if k == n - 1:
            lo[k] = left
            break
        la, lb = a, b
        a, b, p = 1.0, c - xs[k], inf
        while r >= l:
            q = pos[r]
            if a * q + b < t and q < p:
                break
            a -= da[r]
            b -= db[r]
            p = q
            r -= 1
        right = (t - b) / a
        if right > p:
            right = p
        if right < left:  # a jump wider than 2t: both clips at one point
            right = left
        l -= 1
        pos[l], da[l], db[l] = left, la, lb + t
        r += 1
        pos[r], da[r], db[r] = right, -a, t - b
        lo[k], hi[k] = left, right
        c = t
    z = lo  # z[n-1] = lo[n-1]; fill in the rest back to front
    for k in range(n - 2, -1, -1):
        v = z[k + 1]
        z[k] = lo[k] if v < lo[k] else hi[k] if v > hi[k] else v
    return np.array(z)


class ChainSumProx(ProxOperator):
    """Prox of weight * (R1 + R2): the full difference chain plus anchor.

    R1 + R2 = sqrt(2) |w[0] - 1/sqrt(2)| + sum_i |w[i] - w[i+1]|, a 1-D
    total-variation chain whose first node is tied to a virtual node at
    1/sqrt(2); its prox is exact and O(M) (:func:`prox_anchored_chain`).
    The operator holds no state, so equal rows give bit-equal results.
    """

    def __init__(self, pair, weight=1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.pair = pair
        self.weight = float(weight)

    def apply(self, x, mu):
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.pair.M,):
            raise ValueError(f"expected shape ({self.pair.M},), got {x.shape}")
        t = mu * self.weight
        return prox_anchored_chain(x, t, _ANCHOR, np.sqrt(2.0) * t)
