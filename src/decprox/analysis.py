"""Rate theory, fixed-point residuals, reference oracle and decay fitting."""

import math
from dataclasses import dataclass, field

import numpy as np

from .prox import Hint

__all__ = [
    "RateReport",
    "FitVerdict",
    "NotConvergedError",
    "step_bound",
    "theoretical_rate",
    "fixed_point_residuals",
    "centralized_reference",
    "classify_decay",
]


@dataclass(frozen=True)
class RateReport:
    """Contraction factor and step-size bound of the linear-rate theorems."""

    theorem: str
    mu: float
    gamma_primal: float
    gamma_dual: float
    gamma: float
    mu_bound: float
    feasible: bool


@dataclass(frozen=True)
class FitVerdict:
    """Linear-vs-sublinear classification of an error trajectory."""

    classification: str  # linear | sublinear | inconclusive
    geometric_ratio_windows: list
    loglog_slope: float
    fit_residuals: dict = field(default_factory=dict)
    truncated: bool = False


def step_bound(theorem, sigma_max_C, delta):
    """The theorem's strict upper bound on the step size: (2 -
    sigma_max(C))/delta under Theorem 1, 2 (1 - sigma_max(C))/delta under
    Theorem 4."""
    if theorem == "Thm1":
        return (2.0 - sigma_max_C) / delta
    if theorem == "Thm4":
        return 2.0 * (1.0 - sigma_max_C) / delta
    raise ValueError(f"theorem must be 'Thm1' or 'Thm4', got {theorem!r}")


def theoretical_rate(theorem, mu, nu, delta, sigma_max_C, sigma_min_Bsq):
    """Contraction factor gamma and step-size bound.

    The primary form gives gamma_primal = 1 - mu nu (2 - sigma_max(C) -
    mu delta); the non-ATC form gives gamma_primal = 1 - mu nu (2 - mu
    delta/(1 - sigma_max(C))).  Each holds below its :func:`step_bound`.
    In both cases gamma = max(gamma_primal, 1 - min-nonzero-eig(B^2)).
    """
    if not (0 < nu <= delta):
        raise ValueError(f"need 0 < nu <= delta, got nu={nu}, delta={delta}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not (0 < sigma_min_Bsq <= 1):
        raise ValueError(f"sigma_min_Bsq must be in (0,1], got {sigma_min_Bsq}")

    mu_bound = step_bound(theorem, sigma_max_C, delta)
    # sigma_max(C) must lie in [0, 2) (Thm1) or [0, 1) (Thm4): a positive bound.
    if not (sigma_max_C >= 0 and mu_bound > 0):
        raise ValueError(f"sigma_max_C out of range for {theorem}: {sigma_max_C}")
    if theorem == "Thm1":
        gamma_primal = 1.0 - mu * nu * (2.0 - sigma_max_C - mu * delta)
    else:
        gamma_primal = 1.0 - mu * nu * (2.0 - mu * delta / (1.0 - sigma_max_C))

    gamma_dual = 1.0 - sigma_min_Bsq
    return RateReport(
        theorem=theorem,
        mu=mu,
        gamma_primal=gamma_primal,
        gamma_dual=gamma_dual,
        gamma=max(gamma_primal, gamma_dual),
        mu_bound=mu_bound,
        feasible=bool(mu < mu_bound),
    )


def fixed_point_residuals(state):
    """Residuals of the three fixed-point equations, read off a state of
    the primal-dual step (``engine.puda_step``).

    r_primal checks Z = W - mu grad(W) - S (the C term vanishes at
    consensus), r_dual checks B^2 Z = 0, and r_prox checks
    W = prox(A_bar Z).  All are Frobenius norms over the K x M stack,
    normalized by sqrt(KM).  The step carried Z, B^2 Z and W - mu
    grad(W) - S at its new iterate and its own mu (``Z_next``), so no
    step size is needed here.  The step set W = prox(A_bar Z), and the
    prox is deterministic, so r_prox is 0 without a second prox.  That
    holds also where the step's prox took a hint: W is then what the
    hinted prox returned, the closed form being accepted only when it is
    the prox up to rounding.
    """
    if state.Z is None or state.Z_next is None or state.B_sq_Z is None:
        raise ValueError("state carries no Z, Z_next or B^2 Z: not a puda_step")
    scale = math.sqrt(state.W.size)
    # Z - Z_next in one buffer, reused for r_dual.
    buf = np.subtract(state.Z, state.Z_next)
    r_primal = _frobenius(buf, buf) / scale
    r_dual = _frobenius(state.B_sq_Z, buf) / scale
    return r_primal, r_dual, 0.0


def _frobenius(X, out):
    """||X||_F by numpy's pairwise sum, the squares written to ``out``:
    np.linalg.norm reduces through BLAS, whose result depends on its
    thread count."""
    return math.sqrt(np.add.reduce(np.multiply(X, X, out=out), axis=None))


class NotConvergedError(RuntimeError):
    """The reference solver reached its iteration cap above its tolerance."""


def centralized_reference(costs, prox_common, tol=1e-14, max_iter=1_000_000):
    """Solve min (1/K) sum_k J_k(w) + R(w) by proximal gradient descent.

    Runs with step 1/delta until the prox-gradient mapping norm drops
    below ``tol``.  Every error of a run is measured against this point,
    so reaching ``max_iter`` first raises :class:`NotConvergedError`
    with the mapping norm reached.  As in the engine's primal-dual step,
    the prox gets what it found of the current iterate, its own previous
    output, as a hint (``prox.Hint``), carried from one iteration to the
    next; the first iteration has none.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    mu = 1.0 / costs.delta
    w = np.zeros(costs.M)
    found = None
    for _ in range(max_iter):
        x = w - mu * costs.average_grad(w)
        hint = Hint(found)
        w_next = prox_common.apply_stack(x[None], mu, hint=hint)[0]
        found = hint.found
        step = np.subtract(w, w_next)
        mapping = _frobenius(step, step) / mu
        w = w_next
        if mapping <= tol:
            return w
    raise NotConvergedError(
        f"reference solver hit its cap of {max_iter} iterations at mapping "
        f"norm {mapping:.3e}, above its tolerance {tol:g}")


# classify_decay's tuning: the tail share of rows split into N_WINDOWS
# windows, the margins for "linear" and "sublinear", and the numerical
# floor, as a share of the largest error.
TAIL_FRACTION, N_WINDOWS = 0.5, 5
LINEAR_MARGIN, SUBLINEAR_RATIO, FLOOR_RATIO = 1e-4, 0.999, 1e-24


def _window_ratios(iters, log_e):
    """Per-window geometric decay ratios from mean log-error slopes."""
    n = len(log_e)
    bounds = np.linspace(0, n - 1, N_WINDOWS + 1).astype(int)
    ratios = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        slope = (log_e[b] - log_e[a]) / (iters[b] - iters[a])
        ratios.append(float(np.exp(slope)))
    return ratios


def classify_decay(record):
    """Classify an error trajectory as linear, sublinear or inconclusive.

    Estimates per-window geometric ratios on the trailing TAIL_FRACTION
    of the recorded rows, and fits log-error against iteration (geometric
    model) and against log-iteration (power-law model) on a log-spaced
    subsample of the full trajectory.  Linear requires every window ratio
    below 1 - LINEAR_MARGIN with the semilog fit dominating; sublinear
    requires the final window ratio to drift up to at least
    SUBLINEAR_RATIO with the log-log fit dominating.  Rescaling all
    errors leaves the verdict unchanged.
    """
    iters = np.asarray(record.iterations, dtype=float)
    errors = np.asarray(record.errors, dtype=float)
    if len(iters) < 100:
        raise ValueError("need at least 100 recorded rows to classify")

    truncated = False
    pos = errors > 0
    if not pos.all():
        cut = int(np.argmin(pos))  # first nonpositive entry
        iters, errors = iters[:cut], errors[:cut]
        truncated = True
    # Drop the stretch sitting on the numerical floor, where decay stalls.
    if len(errors) and errors.min() <= errors.max() * FLOOR_RATIO:
        cut = int(np.argmax(errors <= errors.max() * FLOOR_RATIO))
        iters, errors = iters[:cut], errors[:cut]
        truncated = True
    if len(iters) < 10:
        return FitVerdict("inconclusive", [], float("nan"), truncated=truncated)

    start = int(len(iters) * (1.0 - TAIL_FRACTION))
    it, e = iters[start:], errors[start:]
    ratios = _window_ratios(it, np.log(e))

    # Fit the two decay models on geometrically subsampled points spanning
    # the whole post-burn-in trajectory: over a wide iteration range a
    # power law and a geometric separate cleanly, while on the tail alone
    # they can look identical.
    lo = max(iters[0], iters[-1] / 100.0)
    targets = np.geomspace(lo, iters[-1], 120)
    idx = np.unique(np.searchsorted(iters, targets).clip(0, len(iters) - 1))
    fi, fe = iters[idx], np.log(errors[idx])

    semi_fit = np.polyfit(fi, fe, 1)
    semi_res = float(np.sqrt(np.mean((np.polyval(semi_fit, fi) - fe) ** 2)))
    log_it = np.log(fi)
    loglog_fit = np.polyfit(log_it, fe, 1)
    loglog_res = float(np.sqrt(np.mean((np.polyval(loglog_fit, log_it) - fe) ** 2)))

    all_below = all(r < 1.0 - LINEAR_MARGIN for r in ratios)
    drifted = ratios and ratios[-1] >= SUBLINEAR_RATIO
    decaying = loglog_fit[0] <= -0.05  # power law must actually decay

    if all_below and semi_res <= loglog_res:
        classification = "linear"
    elif drifted and decaying and loglog_res < semi_res:
        classification = "sublinear"
    else:
        classification = "inconclusive"

    return FitVerdict(
        classification=classification,
        geometric_ratio_windows=ratios,
        loglog_slope=float(loglog_fit[0]),
        fit_residuals={"semilog": semi_res, "loglog": loglog_res},
        truncated=truncated,
    )
