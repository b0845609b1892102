"""Synchronous network iterations for the unified primal-dual family.

One iteration is a compute phase (per-agent gradients and prox, agent
order fixed) followed by a combine phase (K x K matrix product applied
blockwise to the K x M stack).  The dual variable is carried through the
surrogate S = B y, so only B^2 is ever needed and no matrix square root
is computed; with y_{-1} = 0 the surrogate starts at S = 0.

``ALGORITHMS`` is the one table of the algorithms a config may name: an
entry gives the name's Table I row (none for PGEXTRA and DLADMM, whose
regularizers differ by agent), whether it runs on 0.5 (I + A), its
communication rounds per iteration, its rate theorem and its step
factory.  A step factory does once what is fixed over a run and returns
the step, state -> next state, which ``run`` iterates.  Each takes one
prox operator, which maps the K x M stack to its rowwise prox: of the
common R, or of agent k's R_k on row k for PGEXTRA and DLADMM.  Every
Table I row runs as the one primal-dual step; the paper's per-agent
listings and eliminated forms of it (Appendices B and C) are
equivalences, which the tests check against this step rather than run.

Every step multiplies the matrices it is given as they are: netgraph
builds a sparse graph's matrices as CSR (a large sparse graph's combine
costs O(nnz M) instead of O(K^2 M)) and a dense graph's as ndarrays,
where a CSR product would be slower; either product is a dense K x M
stack.

Every state is complete: ``initial_state`` evaluates the first gradient,
and every iteration evaluates exactly one more, at the new iterate, and
carries it in the state.  A step reads grad(W) (and grad(W_prev), where
its recursion needs it) from the state it is given.  The primal-dual
step also hands the prox its current iterate W, the previous prox
output, as a hint (``ProxOperator.apply_stack``): the chain prox solves
the hint's segmentation in closed form when its certificate holds.  The
hint is part of the state, so no operator keeps any.

Divergence has one test, in ``run``: the error of each new iterate to the
reference must be at most ``DIVERGENCE_LIMIT``, which a NaN fails.  No
step checks what it reads.  Each feeds its gradient, S and X into the next
prox input, so a non-finite value among them reaches W, and the error,
within one step.
"""

from dataclasses import dataclass, field

import numpy as np

from . import netgraph

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "BlockIterate",
    "RunRecord",
    "initial_state",
    "puda_step",
    "primal_dual",
    "pg_extra",
    "dl_admm",
    "run",
]

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class BlockIterate:
    """K x M agent-major stacks of the iteration variables.

    W is the newest iterate, W_prev the one before it, and G and G_prev
    their gradients; S is the dual surrogate B y; Z and X hold the
    auxiliary buffers used by the specific recursion in play, and B_sq_Z
    the primal-dual step's product B^2 Z, kept for the fixed-point
    residuals.
    """

    W: np.ndarray
    W_prev: np.ndarray
    G: np.ndarray
    G_prev: np.ndarray = None
    S: np.ndarray = None
    Z: np.ndarray = None
    X: np.ndarray = None
    B_sq_Z: np.ndarray = None
    iter: int = 0


@dataclass
class RunRecord:
    """Per-iteration error trajectory with communication accounting."""

    iterations: list = field(default_factory=list)
    comm_rounds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    diverged: bool = False
    note: str = ""
    final_state: BlockIterate = None


def initial_state(costs, seed=None):
    """Starting iterate w_{-1}, with its gradient: zeros by default, or a
    seeded random stack."""
    K, M = costs.K, costs.M
    if seed is not None:
        W = np.random.default_rng(seed).standard_normal((K, M))
    else:
        W = np.zeros((K, M))
    G = costs.grad_stack(W)
    return BlockIterate(W=W, W_prev=W.copy(), G=G, G_prev=G,
                        S=np.zeros((K, M)), iter=0)


def _advance(state, W_new, costs, **buffers):
    """The state after a step from ``state``: W_new with its gradient,
    which is the one gradient the step evaluates."""
    return BlockIterate(W=W_new, W_prev=state.W, G=costs.grad_stack(W_new),
                        G_prev=state.G, iter=state.iter + 1, **buffers)


def puda_step(state, triple, costs, prox, mu):
    """One step of the general proximal primal-dual recursion:

    Z <- (I - C) W - mu grad(W) - S;  S <- S + B^2 Z;  W <- prox(A_bar Z).

    The prox gets W, its own previous output, as a hint; the hint may
    change W only by rounding.
    """
    W, G = state.W, state.G
    if triple.C_is_zero:
        Z = W - mu * G - state.S
    else:
        Z = W - triple.C @ W - mu * G - state.S
    B_sq_Z = triple.B_sq @ Z
    W_new = prox.apply_stack(triple.A_bar @ Z, mu, hint=W)
    return _advance(state, W_new, costs, S=state.S + B_sq_Z, Z=Z,
                    B_sq_Z=B_sq_Z)


# ---------------------------------------------------------------------------
# the entries' step factories; each takes what it needs of the keywords
# triple, A, c and laplacian, so that all are called alike.

def primal_dual(costs, prox, mu, triple, **_):
    """The primal-dual recursion (:func:`puda_step`) on a consensus triple."""
    return lambda state: puda_step(state, triple, costs, prox, mu)


def pg_extra(costs, prox, mu, A, **_):
    """PG-EXTRA: X <- A W + X - W~ W_prev - mu (grad(W) - grad(W_prev)),
    W <- prox(X), with W~ = 0.5 (I + A) and ``prox`` applying agent k's
    R_k to row k.  With every R_k = 0 it is EXTRA."""
    W_tilde = netgraph.shift_positive(A)

    def step(state):
        W, G = state.W, state.G
        if state.iter == 0:
            X = A @ W - mu * G
        else:
            X = (A @ W + state.X - W_tilde @ state.W_prev
                 - mu * (G - state.G_prev))
        return _advance(state, prox.apply_stack(X, mu), costs, X=X)

    return step


def dl_admm(costs, prox, mu, c, laplacian, **_):
    """DLADMM: W <- prox(W - mu (grad(W) + c L W + S)), S <- S + c L W
    with S the scaled dual and ``prox`` applying agent k's R_k to row k.
    With every R_k = 0 it is DLM."""
    if c is None or laplacian is None:
        raise ValueError("DLADMM requires c and a Laplacian")
    cL = c * laplacian

    def step(state):
        W_new = prox.apply_stack(
            state.W - mu * (state.G + cL @ state.W + state.S), mu)
        return _advance(state, W_new, costs, S=state.S + cL @ W_new)

    return step


@dataclass(frozen=True)
class Algorithm:
    """What the engine, CLI and rate theory need to know of an algorithm."""

    name: str
    row: str        # its Table I row (an AlgorithmId); None: R_k by agent
    shifted: bool   # runs on 0.5 (I + A), whose eigenvalues lie in [0, 1]
    rounds: int     # neighbor communication rounds per iteration
    theorem: str    # "Thm1" or "Thm4": its rate theorem and step bound
    step: object    # step factory
    reduces_to: str = None  # R_k by agent: its Table I row when R_k = 0


ALGORITHMS = {a.name: a for a in (
    #         name              row               shifted rounds theorem
    Algorithm("ProxED",         "ExactDiffusion", False, 1, "Thm1", primal_dual),
    Algorithm("ProxATC1",       "AugDGM",         True,  2, "Thm1", primal_dual),
    Algorithm("ProxATC2",       "ATCTracking",    True,  2, "Thm1", primal_dual),
    Algorithm("ExactDiffusion", "ExactDiffusion", False, 1, "Thm1", primal_dual),
    Algorithm("NIDS",           "NIDS",           False, 1, "Thm1", primal_dual),
    Algorithm("AugDGM",         "AugDGM",         True,  2, "Thm1", primal_dual),
    Algorithm("ATCTracking",    "ATCTracking",    True,  2, "Thm1", primal_dual),
    Algorithm("DIGing",         "DIGing",         True,  2, "Thm4", primal_dual),
    Algorithm("EXTRA",          "EXTRA",          False, 1, "Thm4", primal_dual),
    Algorithm("DLM",            "DLM",            False, 1, "Thm4", primal_dual),
    Algorithm("PGEXTRA",        None,             False, 1, "Thm4", pg_extra,
              reduces_to="EXTRA"),
    Algorithm("DLADMM",         None,             False, 1, "Thm4", dl_admm,
              reduces_to="DLM"),
)}


def rel_sq_error(W, w_star):
    """sum_k ||w_k - w*||^2 / ||w*||^2 (absolute if w* = 0)."""
    diff = W - w_star[None, :]
    denom = float(w_star @ w_star)
    total = float((diff * diff).sum())
    return total / denom if denom > 0 else total


def run(algorithm, step, costs, w_star, iters, record_every=1, seed=None,
        residual_fn=None):
    """Iterate ``step`` (state -> next state, from a step factory of the
    entry ``algorithm``, which sets the rounds per iteration) up to
    ``iters`` times from :func:`initial_state` (``seed``), and
    record the relative squared error to ``w_star`` every
    ``record_every`` iterations, the first and the last always, with
    ``residual_fn(state)`` beside it if given.  The run stops as diverged,
    its note naming the iteration, at the first error that is not at most
    ``DIVERGENCE_LIMIT``; its ``final_state`` is then the state that failed.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    state = initial_state(costs, seed=seed)
    record = RunRecord()

    for i in range(1, iters + 1):
        state = step(state)
        err = rel_sq_error(state.W, w_star)
        if not err <= DIVERGENCE_LIMIT:  # a NaN fails it too
            record.diverged = True
            record.note = (f"error {err:.3e} exceeded the divergence limit"
                           f" at iteration {i}")
            break
        if i % record_every == 0 or i == 1 or i == iters:
            record.iterations.append(i)
            record.comm_rounds.append(i * algorithm.rounds)
            record.errors.append(err)
            record.residuals.append(residual_fn(state) if residual_fn else None)

    record.final_state = state
    return record
