"""Synchronous network iterations for the unified primal-dual family.

One iteration is a compute phase (per-agent gradients and prox, agent
order fixed) followed by a combine phase (K x K matrix product applied
blockwise to the K x M stack).  The dual variable is carried through the
surrogate S = B y, so only B^2 is ever needed and no matrix square root
is computed; with y_{-1} = 0 the surrogate starts at S = 0.

The primal-dual step multiplies by the triple's ``A_bar_op``, ``B_sq_op``
and ``C_op``: a CSR copy of a sparse matrix (a large sparse graph's
combine costs O(nnz M) instead of O(K^2 M)), the dense matrix itself for
a dense one, where a CSR product would be slower.  The other recursions
keep dense products; no workload runs them at large K.

Every iteration evaluates exactly one gradient, at the new iterate, and
carries it in the state: a step reads grad(W) (and grad(W_prev), where
its recursion needs it) from the state it is given, and computes them
only for a state that carries none, such as one from ``initial_state``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .netgraph import ConsensusTriple

__all__ = [
    "BlockIterate",
    "AlgorithmSpec",
    "RunRecord",
    "DivergenceError",
    "initial_state",
    "puda_step",
    "agent_form_step",
    "eliminated_step",
    "separate_prox_step",
    "run",
    "COMM_ROUNDS",
]

DIVERGENCE_LIMIT = 1e12

# Rounds of neighbor communication per iteration, by algorithm.
COMM_ROUNDS = {
    "ExactDiffusion": 1,
    "NIDS": 1,
    "EXTRA": 1,
    "DLM": 1,
    "ProxED": 1,
    "PGEXTRA": 1,
    "DLADMM": 1,
    "AugDGM": 2,
    "ATCTracking": 2,
    "DIGing": 2,
    "ProxATC1": 2,
    "ProxATC2": 2,
}


class DivergenceError(RuntimeError):
    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class BlockIterate:
    """K x M agent-major stacks of the iteration variables.

    W is the newest iterate, W_prev the one before it; S is the dual
    surrogate B y; Z, X and Psi_prev hold the auxiliary/tracking buffers
    used by the specific recursion in play.  G and G_prev are the
    gradients at W and W_prev; A_bar_Z and B_sq_Z are the primal-dual
    step's products A_bar Z and B^2 Z, kept for the fixed-point
    residuals.  Any of these may be None, and is then recomputed where
    it is needed.
    """

    W: np.ndarray
    W_prev: np.ndarray
    S: np.ndarray = None
    Z: np.ndarray = None
    X: np.ndarray = None
    Psi_prev: np.ndarray = None
    G: np.ndarray = None
    G_prev: np.ndarray = None
    A_bar_Z: np.ndarray = None
    B_sq_Z: np.ndarray = None
    iter: int = 0

    def check_finite(self):
        # The carried gradient is checked by the step that consumes it.
        for name in ("W", "S", "X"):
            buf = getattr(self, name)
            if buf is not None and not np.all(np.isfinite(buf)):
                raise DivergenceError(f"non-finite iterate ({name})", self.iter)


@dataclass
class AlgorithmSpec:
    """Which recursion to run and with what parameters."""

    family: str
    mu: float
    prox: object = None           # ProxOperator, or list for separate terms
    triple: ConsensusTriple = None
    A: np.ndarray = None
    laplacian: np.ndarray = None
    c: float = None
    variant: str = None           # eliminated/two-variable sub-form
    comm_rounds_per_iter: int = None
    label: str = None

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.label is None:
            self.label = self.variant or self.family
        if self.comm_rounds_per_iter is None:
            key = self.variant or (self.triple.algorithm_id if self.triple else None)
            self.comm_rounds_per_iter = COMM_ROUNDS.get(
                key, COMM_ROUNDS.get(self.family, 1))


@dataclass
class RunRecord:
    """Per-iteration error trajectory with communication accounting."""

    algorithm: str
    seed: int = None
    iterations: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    wall_time: float = 0.0
    diverged: bool = False
    note: str = ""
    final_state: BlockIterate = None


def initial_state(K, M, init=None, seed=None):
    """Starting iterate w_{-1}: zeros by default, or a seeded random stack."""
    if init is not None:
        W = np.array(init, dtype=float)
        if W.ndim == 1:
            W = np.tile(W, (K, 1))
        if W.shape != (K, M):
            raise ValueError(f"init must broadcast to ({K},{M})")
    elif seed is not None:
        W = np.random.default_rng(seed).standard_normal((K, M))
    else:
        W = np.zeros((K, M))
    return BlockIterate(W=W, W_prev=W.copy(), S=np.zeros((K, M)), iter=0)


def _apply_prox(prox, X, mu):
    if prox is None:
        return X.copy()
    return prox.apply_stack(X, mu)


def _grad(state, costs):
    """grad(W): carried by the state, or computed for one that has none."""
    G = state.G if state.G is not None else costs.grad_stack(state.W)
    if not np.all(np.isfinite(G)):
        raise DivergenceError("non-finite gradient", state.iter)
    return G


def _grad_prev(state, costs):
    """grad(W_prev): carried by the state, or computed for one that has none."""
    if state.G_prev is not None:
        return state.G_prev
    return costs.grad_stack(state.W_prev)


def _advance(state, G, W_new, costs, G_new=None, **buffers):
    """The state after a step that used G = grad(W): W_new with its
    gradient, which is the one gradient the step evaluates."""
    if G_new is None:
        G_new = costs.grad_stack(W_new)
    return BlockIterate(W=W_new, W_prev=state.W, G=G_new, G_prev=G,
                        iter=state.iter + 1, **buffers)


def puda_step(state, triple, costs, prox, mu):
    """One step of the general proximal primal-dual recursion:

    Z <- (I - C) W - mu grad(W) - S;  S <- S + B^2 Z;  W <- prox(A_bar Z).
    """
    W = state.W
    G = _grad(state, costs)
    if triple.C_is_zero:
        Z = W - mu * G - state.S
    else:
        Z = W - triple.C_op @ W - mu * G - state.S
    B_sq_Z = triple.B_sq_op @ Z
    A_bar_Z = triple.A_bar_op @ Z
    W_new = _apply_prox(prox, A_bar_Z, mu)
    return _advance(state, G, W_new, costs, S=state.S + B_sq_Z, Z=Z,
                    A_bar_Z=A_bar_Z, B_sq_Z=B_sq_Z)


def agent_form_step(variant, state, costs, prox, A, mu):
    """One step of the per-agent listings (Prox-ED, Prox-ATC I/II).

    The combination steps are neighbor-weighted sums, written here as
    blockwise products with A.  Iteration 0 is bootstrapped from the
    primal-dual form with zero dual start.
    """
    W, W_prev = state.W, state.W_prev
    G = _grad(state, costs)

    if variant == "ProxED":
        A_bar = 0.5 * (np.eye(A.shape[0]) + A)
        psi = W - mu * G
        Z = psi if state.iter == 0 else state.X + psi - state.Psi_prev
        X = A_bar @ Z
        W_new = _apply_prox(prox, X, mu)
        return _advance(state, G, W_new, costs, Z=Z, X=X, Psi_prev=psi)

    if variant == "ProxATC1":
        psi = W - mu * G
        if state.iter == 0:
            Z = A @ psi
        else:
            Z = 2.0 * state.X - A @ (state.X - psi + state.Psi_prev)
        X = A @ Z
        W_new = _apply_prox(prox, X, mu)
        return _advance(state, G, W_new, costs, Z=Z, X=X, Psi_prev=psi)

    if variant == "ProxATC2":
        if state.iter == 0:
            Z = A @ W - mu * G
        else:
            psi = 2.0 * state.X - mu * (G - _grad_prev(state, costs))
            Z = psi - A @ (state.X - W + W_prev)
        X = A @ Z
        W_new = _apply_prox(prox, X, mu)
        return _advance(state, G, W_new, costs, Z=Z, X=X)

    raise ValueError(f"unknown agent form: {variant!r}")


def eliminated_step(variant, state, costs, mu, A=None, triple=None):
    """One step of the dual-free two-step recursions (smooth case, R = 0).

    Iteration 0 is computed from the primal-dual form with zero dual
    start; afterwards only (W, W_prev) are propagated.  ``AugDGM2var``
    and ``ATCTracking2var`` run the tracking-variable implementations
    behind the same interface.
    """
    W, W_prev = state.W, state.W_prev
    G = _grad(state, costs)
    boot = state.iter == 0
    I = np.eye(A.shape[0]) if A is not None else None

    if variant in ("ExactDiffusion", "NIDS"):
        A_bar = 0.5 * (I + A) if variant == "ExactDiffusion" else triple.A_bar
        if boot:
            W_new = A_bar @ (W - mu * G)
        else:
            dG = G - _grad_prev(state, costs)
            W_new = A_bar @ (2.0 * W - W_prev - mu * dG)

    elif variant == "AugDGM":
        if boot:
            W_new = A @ (A @ (W - mu * G))
        else:
            dG = G - _grad_prev(state, costs)
            W_new = A @ (2.0 * W - A @ W_prev - mu * (A @ dG))

    elif variant == "ATCTracking":
        if boot:
            W_new = A @ (A @ W - mu * G)
        else:
            dG = G - _grad_prev(state, costs)
            W_new = A @ (2.0 * W - A @ W_prev - mu * dG)

    elif variant == "NonATC":
        C, B_sq = triple.C, triple.B_sq
        if boot:
            W_new = W - C @ W - mu * G
        else:
            dG = G - _grad_prev(state, costs)
            W_new = (2.0 * W - C @ W - B_sq @ W) - (W_prev - C @ W_prev) - mu * dG

    elif variant == "AugDGM2var":
        if boot:
            # Tracking init chosen so that w_0 matches the primal-dual start.
            X = (W - A @ W) / mu + A @ G
        else:
            X = state.X
        W_new = A @ (W - mu * X)
        G_new = costs.grad_stack(W_new)
        X = A @ (X + G_new - G)
        return _advance(state, G, W_new, costs, G_new=G_new, X=X)

    elif variant == "ATCTracking2var":
        if boot:
            X = (W - A @ W) / mu + G
        else:
            X = state.X
        W_new = A @ (W - mu * X)
        G_new = costs.grad_stack(W_new)
        X = A @ X + G_new - G
        return _advance(state, G, W_new, costs, G_new=G_new, X=X)

    else:
        raise ValueError(f"unknown eliminated variant: {variant!r}")

    return _advance(state, G, W_new, costs)


def separate_prox_step(variant, state, costs, prox_list, mu, A=None,
                       c=None, laplacian=None):
    """One step of the agent-specific-regularizer algorithms.

    PGEXTRA keeps the running half-iterate in X; DLADMM keeps the scaled
    dual in S.  ``prox_list`` holds one operator per agent.
    """
    W = state.W
    K = W.shape[0]
    if len(prox_list) != K:
        raise ValueError(f"need {K} prox operators, got {len(prox_list)}")
    G = _grad(state, costs)

    def prox_rows(X):
        return np.stack([prox_list[k].apply(X[k], mu) for k in range(K)])

    if variant == "PGEXTRA":
        W_tilde = 0.5 * (np.eye(K) + A)
        if state.iter == 0:
            X = A @ W - mu * G
        else:
            G_prev = _grad_prev(state, costs)
            X = A @ W + state.X - W_tilde @ state.W_prev - mu * (G - G_prev)
        W_new = prox_rows(X)
        return _advance(state, G, W_new, costs, X=X)

    if variant == "DLADMM":
        if c is None or laplacian is None:
            raise ValueError("DLADMM requires c and a Laplacian")
        cL = c * laplacian
        W_new = prox_rows(W - mu * (G + cL @ W + state.S))
        return _advance(state, G, W_new, costs, S=state.S + cL @ W_new)

    raise ValueError(f"unknown separate-prox variant: {variant!r}")


def _make_step(spec, costs):
    fam = spec.family
    if fam == "PUDA_general":
        return lambda st: puda_step(st, spec.triple, costs, spec.prox, spec.mu)
    if fam in ("ProxED", "ProxATC1", "ProxATC2"):
        return lambda st: agent_form_step(fam, st, costs, spec.prox, spec.A, spec.mu)
    if fam in ("EliminatedUDA", "NonATC"):
        variant = spec.variant or ("NonATC" if fam == "NonATC" else None)
        if variant is None:
            raise ValueError("EliminatedUDA needs a variant")
        return lambda st: eliminated_step(variant, st, costs, spec.mu,
                                          A=spec.A, triple=spec.triple)
    if fam in ("PGEXTRA", "DLADMM"):
        return lambda st: separate_prox_step(
            fam, st, costs, spec.prox, spec.mu,
            A=spec.A, c=spec.c, laplacian=spec.laplacian)
    raise ValueError(f"unknown algorithm family: {fam!r}")


def rel_sq_error(W, w_star):
    """sum_k ||w_k - w*||^2 / ||w*||^2 (absolute if w* = 0)."""
    diff = W - w_star[None, :]
    denom = float(w_star @ w_star)
    total = float((diff * diff).sum())
    return total / denom if denom > 0 else total


def run(spec, costs, w_star, iters, record_every=1, init=None, seed=None,
        residual_fn=None, target_error=None):
    """Iterate an algorithm spec and record the error trajectory.

    Parameters
    ----------
    spec : AlgorithmSpec
    costs : SmoothCostSet
    w_star : ndarray
        Reference solution for the relative squared error.
    iters : int
        Iteration budget.
    record_every : int
        Record every this many iterations (iteration 1 and the last
        iteration are always recorded).
    init, seed :
        Initial stack (see :func:`initial_state`).
    residual_fn : callable, optional
        state -> (r_primal, r_dual, r_prox), stored alongside errors.
    target_error : float, optional
        Stop early once the relative squared error falls below this.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    step = _make_step(spec, costs)
    state = initial_state(costs.K, costs.M, init=init, seed=seed)
    record = RunRecord(algorithm=spec.label, seed=seed)
    rounds_per_iter = spec.comm_rounds_per_iter
    t0 = time.perf_counter()

    for i in range(1, iters + 1):
        try:
            state = step(state)
            state.check_finite()
        except DivergenceError as e:
            record.diverged = True
            record.note = f"diverged at iteration {e.iteration}: {e}"
            break
        err = rel_sq_error(state.W, w_star)
        if err > DIVERGENCE_LIMIT:
            record.diverged = True
            record.note = f"error {err:.3e} exceeded divergence limit at {i}"
            break
        if i % record_every == 0 or i == 1 or i == iters:
            record.iterations.append(i)
            record.comm_rounds.append(i * rounds_per_iter)
            record.errors.append(err)
            record.residuals.append(residual_fn(state) if residual_fn else None)
        if target_error is not None and err <= target_error:
            break

    record.wall_time = time.perf_counter() - t0
    record.final_state = state
    return record
