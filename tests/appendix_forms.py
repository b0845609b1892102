"""The paper's other forms of the Table I rows (Appendices B and C): the
per-agent Prox-ED and Prox-ATC listings, and the eliminated, two-variable
and non-ATC recursions, which drop the prox.  The tests run them against
the primal-dual step (``engine.primal_dual``), the one form the program
runs.

Each factory returns a step, state -> next state, for ``engine.run``.
Iteration 0 is the primal-dual step from S = 0, and every iteration
evaluates one gradient, at the new iterate, as the engine's steps do.
"""

import numpy as np

from decprox.engine import BlockIterate


def start_at(costs, W):
    """The state ``engine.initial_state`` builds, at a given start: a K x M
    stack W, or one M-vector every agent starts from."""
    W = np.array(W, dtype=float)
    if W.ndim == 1:
        W = np.tile(W, (costs.K, 1))
    assert W.shape == (costs.K, costs.M), W.shape
    G = costs.grad_stack(W)
    return BlockIterate(W=W, W_prev=W.copy(), G=G, G_prev=G,
                        S=np.zeros_like(W), iter=0)


def advance(state, W_new, costs, G_new=None, **buffers):
    """The state after a step from ``state``: W_new with its gradient
    (G_new if the step evaluated it already)."""
    if G_new is None:
        G_new = costs.grad_stack(W_new)
    return BlockIterate(W=W_new, W_prev=state.W, G=G_new, G_prev=state.G,
                        iter=state.iter + 1, **buffers)


def _adapt_combine(costs, prox, mu, M, first_Z, next_Z):
    """A listing that adapts psi = W - mu grad(W), corrects it to Z (Z =
    first_Z(psi), then next_Z(X, psi, psi_prev)) and combines X = M Z.
    psi_prev is the previous iterate's psi, W_prev - mu grad(W_prev)."""

    def step(state):
        psi = state.W - mu * state.G
        if state.iter == 0:
            Z = first_Z(psi)
        else:
            Z = next_Z(state.X, psi, state.W_prev - mu * state.G_prev)
        X = M @ Z
        return advance(state, prox.apply_stack(X, mu), costs, Z=Z, X=X)

    return step


def agent_prox_ed(costs, prox, mu, A):
    """The per-agent Prox-ED listing, combining with 0.5 (I + A)."""
    return _adapt_combine(costs, prox, mu, 0.5 * (np.eye(A.shape[0]) + A),
                          lambda psi: psi,
                          lambda X, psi, psi_prev: X + psi - psi_prev)


def agent_prox_atc1(costs, prox, mu, A):
    """The per-agent Prox-ATC I listing (AugDGM's row)."""
    return _adapt_combine(
        costs, prox, mu, A, lambda psi: A @ psi,
        lambda X, psi, psi_prev: 2.0 * X - A @ (X - psi + psi_prev))


def agent_prox_atc2(costs, prox, mu, A):
    """The per-agent Prox-ATC II listing (ATCTracking's row)."""

    def step(state):
        W, G = state.W, state.G
        if state.iter == 0:
            Z = A @ W - mu * G
        else:
            psi = 2.0 * state.X - mu * (G - state.G_prev)
            Z = psi - A @ (state.X - W + state.W_prev)
        X = A @ Z
        return advance(state, prox.apply_stack(X, mu), costs, Z=Z, X=X)

    return step


def _two_step(costs, first, recursion):
    """A dual-free two-step recursion (smooth case, R = 0) in (W, W_prev):
    W_0 = first(W, grad(W)), then recursion(W, W_prev, grad difference)."""

    def step(state):
        if state.iter == 0:
            W_new = first(state.W, state.G)
        else:
            W_new = recursion(state.W, state.W_prev, state.G - state.G_prev)
        return advance(state, W_new, costs)

    return step


def eliminated_diffusion(costs, mu, A_bar):
    """Exact Diffusion (A_bar = 0.5 (I + A)) or NIDS (its row's A_bar)
    with the dual eliminated."""
    return _two_step(
        costs, lambda W, G: A_bar @ (W - mu * G),
        lambda W, W_prev, dG: A_bar @ (2.0 * W - W_prev - mu * dG))


def eliminated_aug_dgm(costs, mu, A):
    """AugDGM with the dual eliminated."""
    return _two_step(
        costs, lambda W, G: A @ (A @ (W - mu * G)),
        lambda W, W_prev, dG: A @ (2.0 * W - A @ W_prev - mu * (A @ dG)))


def eliminated_atc_tracking(costs, mu, A):
    """ATC tracking with the dual eliminated."""
    return _two_step(
        costs, lambda W, G: A @ (A @ W - mu * G),
        lambda W, W_prev, dG: A @ (2.0 * W - A @ W_prev - mu * dG))


def non_atc(costs, mu, triple):
    """The non-ATC rows (EXTRA, DIGing, DLM) with the dual eliminated."""
    C, B_sq = triple.C, triple.B_sq
    return _two_step(
        costs, lambda W, G: W - C @ W - mu * G,
        lambda W, W_prev, dG: ((2.0 * W - C @ W - B_sq @ W)
                               - (W_prev - C @ W_prev) - mu * dG))


def _tracking(costs, mu, A, first_X, next_X):
    """W <- A (W - mu X) with X tracking the gradient: X <- next_X(X,
    grad(W_new), grad(W)), from X = first_X(W, grad(W))."""

    def step(state):
        W, G = state.W, state.G
        X = first_X(W, G) if state.iter == 0 else state.X
        W_new = A @ (W - mu * X)
        G_new = costs.grad_stack(W_new)
        return advance(state, W_new, costs, G_new=G_new,
                       X=next_X(X, G_new, G))

    return step


# Each tracking init makes w_0 match the primal-dual start.

def aug_dgm_two_variable(costs, mu, A):
    """AugDGM as its tracking-variable implementation."""
    return _tracking(costs, mu, A, lambda W, G: (W - A @ W) / mu + A @ G,
                     lambda X, G_new, G: A @ (X + G_new - G))


def atc_tracking_two_variable(costs, mu, A):
    """ATC tracking as its tracking-variable implementation."""
    return _tracking(costs, mu, A, lambda W, G: (W - A @ W) / mu + G,
                     lambda X, G_new, G: A @ X + G_new - G)
