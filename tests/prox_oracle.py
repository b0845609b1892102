"""References the tests compare the prox code against: the soft threshold
as first written, a brute-force prox oracle, which uses no closed form,
only the function's values, the
counterexample's difference operators by slicing and as sparse matrices,
the closed form of R1's or R2's prox on one row, and the hinted chain
prox as first written."""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from decprox.prox import _CERT_SLACK, _EPS, prox_l1


def sign_max_soft(x, kappa):
    """The soft threshold as first written, sgn(x) max(|x| - kappa, 0): the
    reference for prox_l1, which gives +0 where this gives -0."""
    return np.sign(x) * np.maximum(np.abs(x) - kappa, 0.0)


def prox_row(op, x, mu):
    """op's prox of one row x, through its stack interface."""
    return op.apply_stack(np.asarray(x, dtype=float)[None], mu)[0]


# b1 and the difference operators of R1(w) = ||D1 w - b1||_1 and R2(w) =
# ||D2 w||_1 (``prox.CounterexampleProx``), D D' = 2I, applied by slicing
# to an M-vector w or an M/2-vector u.

def b1(M):
    out = np.zeros(M // 2)
    out[0] = 1.0
    return out


def D1_dot(w):
    M = len(w)
    out = np.empty(M // 2)
    out[0] = np.sqrt(2.0) * w[0]
    out[1:] = w[1 : M - 2 : 2] - w[2 : M - 1 : 2]
    return out


def D1T_dot(u):
    M = 2 * len(u)
    out = np.zeros(M)
    out[0] = np.sqrt(2.0) * u[0]
    out[1 : M - 2 : 2] = u[1:]
    out[2 : M - 1 : 2] = -u[1:]
    return out


def D2_dot(w):
    return w[0::2] - w[1::2]


def D2T_dot(u):
    out = np.empty(2 * len(u))
    out[0::2] = u
    out[1::2] = -u
    return out


class SparsePair:
    """D1, D2 and b1 of the counterexample on M-vectors, D1 and D2 as CSR
    matrices built entry by entry, and R1, R2 evaluated through their
    dense copies."""

    def __init__(self, M):
        half = M // 2
        rows, cols, vals = [0], [0], [np.sqrt(2.0)]
        for j in range(1, half):
            rows += [j, j]
            cols += [2 * j - 1, 2 * j]
            vals += [1.0, -1.0]
        self.D1 = sp.csr_matrix((vals, (rows, cols)), shape=(half, M))
        rows, cols, vals = [], [], []
        for j in range(half):
            rows += [j, j]
            cols += [2 * j, 2 * j + 1]
            vals += [1.0, -1.0]
        self.D2 = sp.csr_matrix((vals, (rows, cols)), shape=(half, M))
        self.b1 = np.zeros(half)
        self.b1[0] = 1.0

    @cached_property
    def dense(self):
        # The brute-force oracle evaluates R thousands of times at M <= 8,
        # where a dense product is several times faster than a CSR one.
        return self.D1.toarray(), self.D2.toarray()

    def R1(self, w):
        return float(np.abs(self.dense[0] @ w - self.b1).sum())

    def R2(self, w):
        return float(np.abs(self.dense[1] @ w).sum())


def prox_counterexample(which, x, mu):
    """Closed-form prox of R1 or R2 on one row, using D D' = 2I:

    prox(x) = x + (1/(2 mu)) D'[soft(mu D x - mu b, 2 mu^2) - mu D x + mu b]
    """
    if which == "R1":
        v = mu * D1_dot(x) - mu * b1(len(x))
        inner = prox_l1(v, 2.0 * mu * mu) - v
        return x + D1T_dot(inner) / (2.0 * mu)
    if which == "R2":
        v = mu * D2_dot(x)
        inner = prox_l1(v, 2.0 * mu * mu) - v
        return x + D2T_dot(inner) / (2.0 * mu)
    raise ValueError(f"which must be 'R1' or 'R2', got {which!r}")


class OracleFailure(RuntimeError):
    """Raised when the brute-force prox oracle cannot certify its answer."""


def brute_force_prox(R, x, mu, iters=4000, polish=True):
    """Minimize R(z) + ||z - x||^2 / (2 mu) without using any closed form.

    Subgradient descent with weighted averaging (numerical subgradients of
    R via central differences) localizes the minimizer; a derivative-free
    polish then tightens it.  A coordinate probe certifies near-optimality
    and raises :class:`OracleFailure` otherwise.  Intended for M <= 8.
    """
    x = np.asarray(x, dtype=float)
    if x.size > 8:
        raise ValueError("brute-force oracle is restricted to M <= 8")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")

    def h(z):
        d = z - x
        return float(R(z)) + 0.5 * float(d @ d) / mu

    def num_subgrad(z, eps=1e-7):
        g = np.empty_like(z)
        for j in range(z.size):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            g[j] = (R(zp) - R(zm)) / (2.0 * eps)
        return g + (z - x) / mu

    sigma = 1.0 / mu
    z = x.copy()
    zbar = np.zeros_like(z)
    wsum = 0.0
    for t in range(1, iters + 1):
        g = num_subgrad(z)
        z = z - (2.0 / (sigma * (t + 1))) * g
        zbar += t * z
        wsum += t
    zbar /= wsum
    best = zbar if h(zbar) <= h(z) else z

    # Direction set for the pattern search: coordinate axes plus every
    # contiguous-block indicator.  Kink valleys of separable and
    # chain-difference regularizers are spanned by these directions, where
    # axis-aligned methods stall.
    n = best.size
    directions = [np.zeros(n) for _ in range(n * (n + 1) // 2)]
    d_idx = 0
    for i in range(n):
        for j in range(i, n):
            directions[d_idx][i : j + 1] = 1.0
            directions[d_idx] /= np.sqrt(j - i + 1.0)
            d_idx += 1

    if polish:
        from scipy.optimize import minimize, minimize_scalar

        res = minimize(h, best, method="Powell",
                       options={"xtol": 1e-10, "ftol": 1e-14, "maxiter": 20000})
        if h(res.x) <= h(best):
            best = np.asarray(res.x, dtype=float)
        for _ in range(50):
            improved = False
            for d in directions:
                res = minimize_scalar(lambda t: h(best + t * d),
                                      bracket=(-1e-3, 1e-3),
                                      options={"xtol": 1e-13})
                if res.fun < h(best) - 1e-16:
                    best = best + res.x * d
                    improved = True
            if not improved:
                break

    # Certificate: a small move along any search direction must not
    # improve the value beyond curvature noise near the optimum.
    h0 = h(best)
    step = 1e-5
    for j, d in enumerate(directions):
        for s in (step, -step):
            if h(best + s * d) < h0 - 5e-9 * max(1.0, abs(h0)):
                raise OracleFailure(
                    f"prox oracle not converged: direction {j} still descends")
    return best


def chain_from_hint_reference(x, hint, t, anchor, anchor_t):
    """``prox._chain_on`` hint's ``prox._segmentation`` as first written,
    with numpy's wrappers (``max``, ``flatnonzero``, ``repeat``) and a new
    array per operation: the closed form on hint's segmentation, or None
    where its certificate fails.  The program's form must match it byte
    for byte."""
    n = len(x)
    jumps = np.flatnonzero(hint[1:] != hint[:-1])  # block i ends at jumps[i]
    s = np.sign(hint[jumps] - hint[jumps + 1])
    bounds = np.empty(len(jumps) + 2, dtype=np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = 0, jumps + 1, n
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    flow = np.zeros(len(starts))  # s_after - s_before per block
    flow[:-1] += s
    flow[1:] -= s
    rhs = np.add.reduceat(x, starts) - t * flow
    tol = _CERT_SLACK * n * _EPS * (
        max(x.max(), -x.min()) + abs(anchor) + anchor_t + t) / t
    if hint[0] == anchor:  # block 0 pinned: u_a takes up the slack
        u_a = (rhs[0] - sizes[0] * anchor) / anchor_t
        v = rhs / sizes
        v[0] = anchor
        anchor_ok = abs(u_a) <= 1.0 + tol
    else:
        u_a = 1.0 if hint[0] > anchor else -1.0
        rhs[0] -= anchor_t * u_a
        v = rhs / sizes
        anchor_ok = u_a * (v[0] - anchor) > 0
    if not (anchor_ok and (s * (v[:-1] - v[1:]) > 0).all()):
        return None
    z = np.repeat(v, sizes)
    u = np.cumsum(x - z)
    u -= anchor_t * u_a
    u /= t
    if (max(u.max(), -u.min()) > 1.0 + tol or abs(u[-1]) > tol
            or (len(s) and np.abs(u[jumps] - s).max() > tol)):
        return None
    return z
