"""Synchronous network iterations for the unified primal-dual family.

One iteration is a compute phase (per-agent gradients and prox, agent
order fixed) followed by a combine phase (K x K matrix product applied
blockwise to the K x M stack).  The dual variable is carried through the
surrogate S = B y, so only B^2 is ever needed and no matrix square root
is computed; with y_{-1} = 0 the surrogate starts at S = 0.

``ALGORITHMS`` is the one table of the algorithms a config may name: an
entry is a Table I row (``netgraph.AlgorithmId``, which states whether it
runs on 0.5 (I + A), its communication rounds per iteration and its rate
theorem) and a step factory.  PGEXTRA and DLADMM, whose regularizers
differ by agent, have their own steps and the row each runs when every
R_k = 0.  A step factory does once what is fixed over a run and returns
the step, state -> next state, which ``run`` iterates.  Each takes one
prox operator, which maps the K x M stack to its rowwise prox: of the
common R, or of agent k's R_k on row k for PGEXTRA and DLADMM.  Every
Table I row runs as the one primal-dual step; the paper's per-agent
listings and eliminated forms of it (Appendices B and C) are
equivalences, which the tests check against this step rather than run.

netgraph builds a sparse graph's matrices as CSR (a large sparse graph's
combine costs O(nnz M) instead of O(K^2 M)) and a dense graph's as
ndarrays, where a CSR product would be slower; either product is a dense
K x M stack.  A Table I member is a polynomial in its row's base
(``netgraph.BasePolynomial``), applied as products with the base: at
most two per step for A_bar and B^2 together.

Every state is complete: ``initial_state`` evaluates the first gradient,
and every iteration evaluates exactly one more, at the new iterate, and
carries it in the state.  A step reads grad(W) (and grad(W_prev), where
its recursion needs it) from the state it is given, and never writes to
that state or rebinds its fields: it builds a new one.  The primal-dual
step also hands the prox, as a hint (``prox.Hint``), the segmentation
it found of its previous output, the current iterate W (none at the
first step): the chain prox solves that segmentation in closed form
when its certificate holds, and hands back its output's.  The step also
builds W - mu grad(W) - S at its new iterate (``Z_next``): the next
step's Z where C is zero, and what the fixed-point residuals compare Z
with on every row.  Hint and Z are part of the state, so no operator
keeps any.

Divergence has one test, in ``run``: the error of each new iterate to the
reference must be at most ``DIVERGENCE_LIMIT``, which a NaN fails.  No
step checks what it reads.  Each feeds its gradient, S and X into the next
prox input, so a non-finite value among them reaches W, and the error,
within one step.
"""

from dataclasses import dataclass, field

import numpy as np

from . import netgraph, prox as prox_mod

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


@dataclass(slots=True)
class BlockIterate:
    """K x M agent-major stacks of the iteration variables.

    W is the newest iterate, W_prev the one before it, and G and G_prev
    their gradients; S is the dual surrogate B y; Z and X hold the
    auxiliary buffers used by the specific recursion in play (DLADMM's X
    is c L W, which its next step reuses), and B_sq_Z the primal-dual
    step's product B^2 Z, kept for the fixed-point residuals.  The
    primal-dual step also leaves W_segments, what its prox found of each
    row of W (``prox.Hint.found``), which the next step hands back to
    the prox, and Z_next, W - mu G - S at the step's mu: the next step's
    Z where C is zero.

    No step writes to the arrays or rebinds the fields of a state it is
    given.  The class is slotted, not frozen: every step builds one, and
    a frozen build pays a guarded setattr per field.
    """

    W: np.ndarray
    W_prev: np.ndarray
    G: np.ndarray
    G_prev: np.ndarray = None
    S: np.ndarray = None
    Z: np.ndarray = None
    X: np.ndarray = None
    B_sq_Z: np.ndarray = None
    Z_next: np.ndarray = None
    W_segments: list = None
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


def _z_without_c(W, G, S, mu):
    """W - mu G - S, left to right, in one new array: Z where C is zero."""
    Z = np.multiply(G, mu)
    np.subtract(W, Z, out=Z)
    Z -= S
    return Z


def puda_step(state, triple, costs, prox, mu):
    """One step of the general proximal primal-dual recursion:

    Z <- (I - C) W - mu grad(W) - S;  S <- S + B^2 Z;  W <- prox(A_bar Z).

    A_bar Z and B^2 Z come from one call (``ConsensusTriple.combine``),
    which shares the base's products and scaled powers between them.  The
    prox gets the segmentation it found of W, its own previous output,
    as a hint; the hint may change W only by rounding.
    Every step leaves W - mu grad(W) - S at its new iterate
    (``Z_next``), which is the next step's Z where C is zero.
    """
    W, G, S = state.W, state.G, state.S
    C_product = triple.C_product
    if C_product is not None:
        # W - C W - mu G - S, left to right, in one new array: Z_next -
        # C W would round differently.
        Z = W - C_product(W)
        Z -= mu * G
        Z -= S
    elif state.Z_next is not None:
        Z = state.Z_next
    else:  # the initial state carries none
        Z = _z_without_c(W, G, S, mu)
    A_bar_Z, B_sq_Z = triple.combine(Z)
    hint = prox_mod.Hint(state.W_segments)
    W_new = prox.apply_stack(A_bar_Z, mu, hint=hint)
    G_new = costs.grad_stack(W_new)
    S_new = S + B_sq_Z
    return BlockIterate(
        W=W_new, W_prev=W, G=G_new, G_prev=G, S=S_new, Z=Z, B_sq_Z=B_sq_Z,
        Z_next=_z_without_c(W_new, G_new, S_new, mu), W_segments=hint.found,
        iter=state.iter + 1)


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
            # A W + X - W~ W_prev - mu (G - G_prev), left to right, in
            # place.
            X = A @ W
            X += state.X
            X -= W_tilde @ state.W_prev
            D = np.subtract(G, state.G_prev)
            D *= mu
            X -= D
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
        # c L W, made by the step before (X) but for the first.
        LW = cL @ state.W if state.X is None else state.X
        D = state.G + LW
        D += state.S
        D *= mu
        W_new = prox.apply_stack(np.subtract(state.W, D, out=D), mu)
        LW_new = cL @ W_new
        return _advance(state, W_new, costs, S=state.S + LW_new, X=LW_new)

    return step


@dataclass(frozen=True)
class Algorithm:
    """A name a config may give: the Table I row it runs (for PGEXTRA and
    DLADMM, the row each runs when every R_k = 0), which states its shift,
    rounds and theorem, and its step factory."""

    row: netgraph.AlgorithmId
    step: object = primal_dual


ALGORITHMS = {
    "ProxED": Algorithm(netgraph.AlgorithmId.EXACT_DIFFUSION),
    "ProxATC1": Algorithm(netgraph.AlgorithmId.AUG_DGM),
    "ProxATC2": Algorithm(netgraph.AlgorithmId.ATC_TRACKING),
    **{row.value: Algorithm(row) for row in netgraph.AlgorithmId},
    "PGEXTRA": Algorithm(netgraph.AlgorithmId.EXTRA, pg_extra),
    "DLADMM": Algorithm(netgraph.AlgorithmId.DLM, dl_admm),
}


def rel_sq_error(W, w_star, w_star_sq):
    """sum_k ||w_k - w*||^2 / ||w*||^2 (absolute if w* = 0), given
    ``w_star_sq`` = ||w*||^2."""
    sq = np.subtract(W, w_star)
    np.multiply(sq, sq, out=sq)
    # The pairwise sum of ndarray.sum, without its Python wrappers.
    total = float(np.add.reduce(sq, axis=None))
    return total / w_star_sq if w_star_sq > 0 else total


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
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    # A pairwise sum: a BLAS dot product depends on its thread count.
    w_star_sq = float(np.add.reduce(w_star * w_star))
    state = initial_state(costs, seed=seed)
    record = RunRecord()

    for i in range(1, iters + 1):
        state = step(state)
        err = rel_sq_error(state.W, w_star, w_star_sq)
        if not err <= DIVERGENCE_LIMIT:  # a NaN fails it too
            record.diverged = True
            record.note = (f"error {err:.3e} exceeded the divergence limit"
                           f" at iteration {i}")
            break
        if i % record_every == 0 or i == 1 or i == iters:
            record.iterations.append(i)
            record.comm_rounds.append(i * algorithm.row.rounds)
            record.errors.append(err)
            record.residuals.append(residual_fn(state) if residual_fn else None)

    record.final_state = state
    return record
