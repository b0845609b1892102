"""Proximal operators on a K x M stack: R separates over the rows (the
agents), and every operator takes its prox row by row through
``apply_stack``.  l1 soft-thresholding, the two agents' pairwise-difference
regularizers with closed-form proxes, and an exact direct prox of their
sum, solved in closed form on a segmentation when its dual certificate
holds: the one it found of its previous output, or the dynamic
programme's."""

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProxOperator",
    "Hint",
    "ZeroProx",
    "L1Prox",
    "CounterexampleProx",
    "ChainSumProx",
    "prox_l1",
    "prox_anchored_chain",
]


# sqrt(2) |w[0] - _ANCHOR| is the anchor term |sqrt(2) w[0] - 1| of R1.
# math.sqrt and np.sqrt both round sqrt(2) correctly: the same double.
_SQRT2 = math.sqrt(2.0)
_ANCHOR = 1.0 / _SQRT2


def prox_l1(x, kappa):
    """Componentwise soft threshold x - clip(x, -kappa, kappa): the value
    of sgn(x) max(|x| - kappa, 0), +0 wherever |x| <= kappa."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    x = np.asarray(x, dtype=float)
    out = np.clip(x, -kappa, kappa)
    return np.subtract(x, out, out=out)


class ProxOperator:
    """Evaluates prox of mu * R on a K x M stack, R a sum over its rows."""

    def apply_stack(self, X, mu, hint=None):
        """Rowwise prox of a K x M stack.  ``hint``, a :class:`Hint` or
        None, holds what the operator found of its previous output, which
        is believed near the result; an operator may use it to go faster,
        never to change its answer beyond rounding."""
        raise NotImplementedError


class Hint:
    """The hint of one ``apply_stack`` call: what an operator found of its
    own previous output.

    ``segments`` holds it row by row (None, or a None entry, where nothing
    is known, as on a first call).  An operator that finds the same of
    its output leaves it in ``found``, for the hint of the next call; the
    engine and the reference solver carry it from call to call, so that
    no operator keeps state.
    """

    __slots__ = ("segments", "found")

    def __init__(self, segments=None):
        self.segments = segments
        self.found = None


class ZeroProx(ProxOperator):
    """R = 0; prox is the identity."""

    def apply_stack(self, X, mu, hint=None):
        return np.array(X, dtype=float)


class L1Prox(ProxOperator):
    """R = weight * ||.||_1 on every row."""

    def __init__(self, weight=1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.weight = float(weight)

    def apply_stack(self, X, mu, hint=None):
        return prox_l1(X, mu * self.weight)


def _check_length(M):
    """M, once it is even and >= 2: the counterexample pairs its entries."""
    if M < 2 or M % 2 != 0:
        raise ValueError(f"M must be even and >= 2, got {M}")
    return M


class CounterexampleProx(ProxOperator):
    """The two agents' separate regularizers on M-vectors, M even.

    R1(w) = ||D1 w - b1||_1 anchors sqrt(2) w[0] at 1 (b1 = e_0) and
    penalizes the differences (w[1]-w[2]), (w[3]-w[4]), ...; R2(w) =
    ||D2 w||_1 penalizes (w[0]-w[1]), (w[2]-w[3]), ....  R1 acts on row 0
    and R2 on row 1, each in closed form through D D' = 2I,

        prox(x) = x + (1/(2 mu)) D'[soft(v, 2 mu^2) - v],  v = mu D x - mu b,

    both rows in one pass: one soft threshold of the (2, M/2) stack of v."""

    def __init__(self, M):
        self.M = _check_length(M)

    def apply_stack(self, X, mu, hint=None):
        X = np.asarray(X, dtype=float)
        M = self.M
        if X.shape != (2, M):
            raise ValueError(f"expected a stack of 2 rows of length {M}, "
                             f"got shape {X.shape}")
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        # V = mu D x - mu b with b1 = e_0 and b2 = 0: subtracting mu * 0
        # would change no bit, so only V[0, 0] takes it.
        V = np.empty((2, M // 2))
        V[0, 0] = _SQRT2 * X[0, 0]
        np.subtract(X[0, 1:M - 2:2], X[0, 2:M - 1:2], out=V[0, 1:])
        np.subtract(X[1, 0::2], X[1, 1::2], out=V[1])
        V *= mu
        V[0, 0] -= mu
        inner = prox_l1(V, 2.0 * mu * mu)
        inner -= V
        # D' inner, written slice by slice; row 0's last entry is in no
        # difference of R1.
        out = np.empty((2, M))
        out[0, 0] = _SQRT2 * inner[0, 0]
        out[0, 1:M - 2:2] = inner[0, 1:]
        np.negative(inner[0, 1:], out=out[0, 2:M - 1:2])
        out[0, M - 1] = 0.0
        out[1, 0::2] = inner[1]
        np.negative(inner[1], out=out[1, 1::2])
        out /= 2.0 * mu
        out += X
        return out


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
    O(M).  Every NaN of the output is ``np.nan``: the sign bit a NaN picks
    up in the scalar loop can change from one call to the next.
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
    z = np.array(z)
    z[np.isnan(z)] = np.nan
    return z


# The certificate's slack, in units of the rounding bound n eps (max|x| +
# |anchor| + anchor_t + t) / t of the cumulative sums it is read from.  The
# dynamic programme's own exact outputs at n = 2000 stay within a tenth of
# the bound.
_CERT_SLACK = 4.0
_EPS = np.finfo(float).eps


class _Segmentation(NamedTuple):
    """A chain row's fused blocks, as the closed form reads them: block i
    starts at starts[i] and holds sizes[i] entries; it ends at jumps[i],
    where the row steps down (s[i] = 1) or up (s[i] = -1) to block i + 1;
    turn[i] = s[i] - s[i - 1] with s zero beyond both ends; side is 0.0
    when entry 0 sits at the anchor, else the sign of its offset from it.
    Its arrays are read, never written, so one may be shared by many
    calls."""

    starts: np.ndarray
    jumps: np.ndarray
    s: np.ndarray
    turn: np.ndarray
    sizes: np.ndarray
    side: float


def _segmentation(row, anchor):
    """The :class:`_Segmentation` of a row: its runs of equal entries."""
    n = len(row)
    # The block bounds [0, jumps + 1, n] from one nonzero, and s padded
    # with a zero at each end: turn is one difference.
    edge = np.empty(n + 1, dtype=bool)
    edge[::n] = True
    np.not_equal(row[1:], row[:-1], out=edge[1:n])
    bounds = edge.nonzero()[0]
    after = bounds[1:-1]
    jumps = after - 1
    padded = np.zeros(len(bounds))
    s = padded[1:-1]
    np.subtract(row[jumps], row[after], out=s)
    np.sign(s, out=s)
    side = 0.0 if row[0] == anchor else 1.0 if row[0] > anchor else -1.0
    return _Segmentation(bounds[:-1], jumps, s, padded[1:] - padded[:-1],
                         bounds[1:] - bounds[:-1], side)


def _chain_on(x, seg, t, anchor, anchor_t):
    """The prox of :func:`prox_anchored_chain` (anchor_t > 0) in closed
    form on the segmentation ``seg``; None when its dual certificate fails.

    The blocks, the signs s of their jumps, and whether block 0 sits at
    the anchor fix every subgradient the optimality condition x - z =
    anchor_t u_a e_0 + t D'u leaves open (D the difference operator, u_j
    in the subdifferential of |z[j] - z[j+1]|).  Summed over block B, it
    gives the block's value

        |B| v = sum_B x - [B is block 0] anchor_t u_a - t (s_after - s_before),

    with u_a = sign(v_0 - anchor) off the anchor; on it, v_0 = anchor and
    u_a follows instead.  The candidate is the prox exactly when its
    multipliers u = (cumsum(x - z) - anchor_t u_a) / t satisfy |u| <= 1,
    u[-1] = 0, u = s at each jump with every jump of sign s, |u_a| <= 1 on
    the anchor and u_a = sign(v_0 - anchor) off it (Tibshirani & Taylor,
    Ann. Stat. 2011).  The checks allow rounding only.  Each block is
    summed by itself: differences of one global cumsum of x lose about
    1e-14 on a short block late in a long chain.

    An accepted z has exactly the segmentation ``seg``: adjacent blocks
    differ strictly, each with its jump's sign s, and z[0] is on the
    anchor, or strictly on the side ``seg`` gives.
    """
    starts, jumps, s, turn, sizes, side = seg
    n = len(x)
    rhs = np.add.reduceat(x, starts)
    rhs -= turn * t
    # max |x| is max(max x, -min x), a NaN included, in one reduction.
    tol = _CERT_SLACK * n * _EPS * (
        np.maximum.reduce(np.abs(x)) + abs(anchor) + anchor_t + t) / t
    if not side:  # block 0 pinned: u_a takes up the slack
        u_a = (rhs[0] - sizes[0] * anchor) / anchor_t
        v = np.divide(rhs, sizes, out=rhs)
        v[0] = anchor
        anchor_ok = abs(u_a) <= 1.0 + tol
    else:
        u_a = side
        rhs[0] -= anchor_t * u_a
        v = np.divide(rhs, sizes, out=rhs)
        anchor_ok = u_a * (v[0] - anchor) > 0
    if not anchor_ok:
        return None
    drop = v[:-1] - v[1:]
    drop *= s
    if not np.logical_and.reduce(drop > 0):
        return None
    z = v.repeat(sizes)
    u = np.subtract(x, z)
    u.cumsum(out=u)
    u -= anchor_t * u_a
    u /= t
    miss = u[jumps]
    miss -= s
    if (np.maximum.reduce(np.abs(u)) > 1.0 + tol or abs(u[-1]) > tol
            or np.maximum.reduce(np.abs(miss, out=miss), initial=0.0) > tol):
        return None
    return z


class ChainSumProx(ProxOperator):
    """Prox of weight * (R1 + R2) on every row: the full difference chain
    plus anchor.

    R1 + R2 = sqrt(2) |w[0] - 1/sqrt(2)| + sum_i |w[i] - w[i+1]|, a 1-D
    total-variation chain whose first node is tied to a virtual node at
    1/sqrt(2); its prox is exact and O(M) (:func:`prox_anchored_chain`).
    Each row is solved in closed form on a segmentation
    (:func:`_chain_on`): the one its :class:`Hint` carries, else the
    dynamic programme's own, which the closed form makes exact where the
    programme's sums lose digits.  Given a Hint, it leaves its output's
    segmentation in ``found``, for every row: a row solved in closed form
    has exactly the segmentation it was solved on, and a row the closed
    form fails on is the dynamic programme's output, whose segmentation
    it derived.  The operator holds no state, so equal rows with equal
    hints give bit-equal results.
    """

    def __init__(self, M, weight=1.0):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.M = _check_length(M)
        self.weight = float(weight)

    def apply_stack(self, X, mu, hint=None):
        """Rowwise prox; row k tries the hint's segmentation of row k
        where it carries one, and runs the dynamic programme where it
        carries none or its certificate fails."""
        X = np.asarray(X, dtype=float)
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        if X.ndim != 2 or X.shape[1] != self.M:
            raise ValueError(f"expected shape (K, {self.M}), got {X.shape}")
        segments = (hint and hint.segments) or [None] * len(X)
        if len(segments) != len(X):
            raise ValueError(f"hint has {len(segments)} rows, not {len(X)}")
        t = mu * self.weight
        anchor_t = _SQRT2 * t
        out = np.empty_like(X)
        found = [None] * len(X)
        for k, (x, seg) in enumerate(zip(X, segments)):
            z = None if seg is None else _chain_on(x, seg, t, _ANCHOR,
                                                   anchor_t)
            if z is None:
                dp = prox_anchored_chain(x, t, _ANCHOR, anchor_t)
                seg = _segmentation(dp, _ANCHOR)
                z = _chain_on(x, seg, t, _ANCHOR, anchor_t)
                if z is None:
                    z = dp
            out[k] = z
            found[k] = seg
        if hint is not None:
            hint.found = found
        return out
