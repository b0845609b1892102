"""Correctness checks computed apart from decprox.

Every check takes plain arrays and returns a list of problems (empty when
the check passes).  None of them calls into the program or compares with
a stored copy of an earlier output: each is an optimality certificate
worked out with the benchmark's own numpy/scipy code, or a property the
method must have (Theorem 1's contraction, a reached tolerance, decay).
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import expit


def logistic_kkt(w, X, y, lam, rho, tol=1e-8):
    """KKT certificate of min (1/N) sum log(1 + exp(-y x'w)) + lam/2 |w|^2 + rho |w|_1.

    With g the gradient of the smooth part: g_j + rho sign(w_j) = 0 on the
    support and |g_j| <= rho off it.
    """
    margins = -y * (X @ w)
    g = X.T @ (-y * expit(margins)) / len(y) + lam * w
    on = w != 0
    problems = []
    stationarity = np.abs(g[on] + rho * np.sign(w[on]))
    if stationarity.size and stationarity.max() > tol:
        problems.append(f"KKT: |g + rho sign(w)| = {stationarity.max():.3e} on the support")
    if np.any(~on) and np.abs(g[~on]).max() > rho + tol:
        problems.append(f"KKT: |g| = {np.abs(g[~on]).max():.3e} > rho = {rho} off the support")
    return problems


def chain_operator(M):
    """D = [D1; D2] and b of the two-agent counterexample, built here.

    R1 + R2 = |D w - b|_1: row 0 anchors sqrt(2) w_0 at 1, the other rows of
    D1 take w_{2j-1} - w_{2j}, and the rows of D2 take w_{2j} - w_{2j+1}.
    """
    half = M // 2
    rows, cols, vals = [0], [0], [np.sqrt(2.0)]
    for j in range(1, half):
        rows += [j, j]
        cols += [2 * j - 1, 2 * j]
        vals += [1.0, -1.0]
    for j in range(half):
        rows += [half + j, half + j]
        cols += [2 * j, 2 * j + 1]
        vals += [1.0, -1.0]
    D = sp.csr_matrix((vals, (rows, cols)), shape=(M, M))
    b = np.zeros(M)
    b[0] = 1.0
    return D, b


def chain_dual_certificate(w, M, eta, weight, tol=1e-6, zero_tol=1e-8):
    """Dual certificate of min (eta/2)|w|^2 + weight |D w - b|_1.

    Optimality asks for u in the subdifferential of |.|_1 at D w - b with
    eta w + weight D'u = 0.  D is square and invertible, so u is the unique
    solution of D'u = -(eta/weight) w: it must satisfy |u|_inf <= 1 and
    u_j = sign(r_j) wherever r = D w - b is nonzero.
    """
    D, b = chain_operator(M)
    u = spsolve(D.T.tocsc(), -(eta / weight) * w)
    r = D @ w - b
    problems = []
    if not np.all(np.isfinite(u)):
        return ["dual certificate: non-finite multiplier"]
    if np.abs(u).max() > 1.0 + tol:
        problems.append(f"dual certificate: |u|_inf = {np.abs(u).max():.9f} > 1")
    active = np.abs(r) > zero_tol
    mismatch = np.abs(u[active] - np.sign(r[active])) > tol
    if mismatch.any():
        problems.append(f"dual certificate: {int(mismatch.sum())} multipliers off sign(D w - b)")
    return problems


def soft_threshold_mean(w, targets, rho, eta, tol=1e-12):
    """Lasso over isotropic quadratics: w* = soft(mean of targets, rho/eta)."""
    m = targets.mean(axis=0)
    expected = np.sign(m) * np.maximum(np.abs(m) - rho / eta, 0.0)
    err = np.abs(w - expected).max()
    if not err <= tol * max(1.0, np.abs(expected).max()):
        return [f"w* differs from the soft-thresholded mean by {err:.3e}"]
    return []


def iters_to_tol(iters, errors, tol):
    """First recorded iteration from which on the error stays at most tol
    times the first recorded error, or None if it never gets there.

    "Stays" matters where the error oscillates early (large steps on a
    sparse graph dip once below the tolerance before settling)."""
    above = np.flatnonzero(errors > tol * errors[0])
    if not above.size:
        return int(iters[0])
    last = above[-1]
    return int(iters[last + 1]) if last + 1 < len(iters) else None


def theorem1_ratio(iters, errors, gamma, burn_in, window, slack=1e-3, floor=1e-18):
    """Per-window geometric decay after burn-in must stay at or below gamma + slack.

    Windows span ``window`` iterations from ``burn_in`` on and stop where the
    error has fallen below ``floor`` times its first value, since on the
    numerical floor the error no longer decays.
    """
    if gamma is None or not gamma < 1.0:
        return [f"no contraction factor below 1 reported (gamma={gamma})"]
    live = errors > floor * errors[0]
    end = int(np.argmin(live)) if not live.all() else len(errors)
    starts = [i for i in range(len(errors)) if iters[i] >= burn_in and i + window < end]
    starts = starts[::window]
    if not starts:
        return ["no decay window after burn-in"]
    ratios = [(errors[a + window] / errors[a]) ** (1.0 / (iters[a + window] - iters[a]))
              for a in starts]
    worst = max(ratios)
    if not worst <= gamma + slack:
        return [f"window decay ratio {worst:.6f} > gamma {gamma:.6f} + {slack}"]
    return []


def finite_and_decreased(errors):
    """The run ended finite and below its first recorded error."""
    if not np.all(np.isfinite(errors)):
        return ["non-finite error"]
    if not errors[-1] < errors[0]:
        return [f"final error {errors[-1]:.3e} not below the first {errors[0]:.3e}"]
    return []
