import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decprox import cli, engine, prox as prox_mod
from decprox.analysis import centralized_reference
from decprox.costs import quadratic_cost
from decprox.prox import (
    ChainSumProx,
    CounterexampleProx,
    Hint,
    L1Prox,
    ZeroProx,
    prox_anchored_chain,
    prox_l1,
)
from decprox.prox import _chain_on, _segmentation
from prox_oracle import (
    D1T_dot,
    D1_dot,
    D2T_dot,
    D2_dot,
    SparsePair,
    b1,
    brute_force_prox,
    chain_from_hint_reference,
    l1_certificate,
    prox_counterexample,
    prox_row,
    sign_max_soft,
)
from test_engine import same_bytes, special_stack


def chain_certificate(x, z, t, tol=1e-10):
    """:func:`l1_certificate` of z as the prox of t (R1 + R2) at x."""
    return l1_certificate(*SparsePair(len(x)).terms("R1+R2"), x, z, t, tol)


def chain_sum(M):
    """R1 + R2 through the sparse reference."""
    ref = SparsePair(M)
    return lambda w: ref.R1(w) + ref.R2(w)


class TestL1:
    def test_scalar_against_grid(self):
        rng = np.random.default_rng(0)
        grid = np.linspace(-6, 6, 240001)
        for _ in range(10):
            x = float(rng.uniform(-3, 3))
            kappa = float(rng.uniform(0.1, 2.0))
            obj = np.abs(grid) + (grid - x) ** 2 / (2 * kappa)
            z_grid = grid[np.argmin(obj)]
            assert abs(prox_l1(np.array([x]), kappa)[0] - z_grid) < 1e-4

    def test_known_values(self):
        assert np.allclose(prox_l1(np.array([3.0, -3.0, 0.2]), 1.0),
                           [2.0, -2.0, 0.0])

    def test_operator_stack(self):
        op = L1Prox(0.5)
        X = np.array([[2.0, -0.1], [-3.0, 1.0]])
        assert np.array_equal(op.apply_stack(X, 1.0),
                              np.stack([prox_l1(r, 0.5) for r in X]))

    @pytest.mark.parametrize("seed", range(5))
    def test_lean_matches_expression(self, seed):
        # x - clip(x, -kappa, kappa) is sgn(x) max(|x| - kappa, 0) bit for
        # bit, on stacks with +-0, NaN and +-inf, but for +0 where that
        # gives -0; and soft(v) - v, the counterexample prox's term, keeps
        # every bit off the NaNs.
        for x in (special_stack(seed), special_stack(seed, (9,))):
            for kappa in (0.5, 1e-3, 2.0):
                with np.errstate(invalid="ignore"):
                    ref = sign_max_soft(x, kappa)
                    got = prox_l1(x, kappa)
                    moved, ref_moved = got - x, ref - x
                nan = np.isnan(ref)
                assert np.array_equal(np.isnan(got), nan)
                zero = ref == 0.0
                assert same_bytes(got[zero], np.zeros(zero.sum()))
                assert same_bytes(got[~zero & ~nan], ref[~zero & ~nan])
                assert same_bytes(moved[~nan], ref_moved[~nan])

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            L1Prox(0.0)
        with pytest.raises(ValueError):
            prox_l1(np.zeros(2), -1.0)


class TestCounterexampleStructure:
    @pytest.mark.parametrize("M", [2, 4, 6, 10])
    def test_ddt_identity(self, M):
        half = M // 2
        for D_dot in (D1_dot, D2_dot):
            D = np.column_stack([D_dot(e) for e in np.eye(M)])
            assert np.abs(D @ D.T - 2.0 * np.eye(half)).max() <= 1e-15

    @pytest.mark.parametrize("M", [2, 4, 8])
    def test_fast_products_match_sparse(self, M):
        ref = SparsePair(M)
        rng = np.random.default_rng(M)
        w = rng.standard_normal(M)
        u = rng.standard_normal(M // 2)
        assert np.array_equal(b1(M), ref.b1)
        assert np.allclose(D1_dot(w), ref.D1 @ w)
        assert np.allclose(D2_dot(w), ref.D2 @ w)
        assert np.allclose(D1T_dot(u), ref.D1.T @ u)
        assert np.allclose(D2T_dot(u), ref.D2.T @ u)

    def test_sum_is_anchored_chain(self):
        # R1 + R2 penalizes every consecutive difference plus the anchor.
        ref = SparsePair(6)
        w = np.array([1.0, 3.0, 2.0, 2.0, 5.0, 1.0])
        chain = np.abs(np.diff(w)).sum()
        anchor = abs(np.sqrt(2) * w[0] - 1.0)
        assert ref.R1(w) + ref.R2(w) == pytest.approx(anchor + chain)

    def test_odd_m_rejected(self):
        for op in (CounterexampleProx, ChainSumProx):
            for M in (5, 0):
                with pytest.raises(ValueError, match="M must be even and >= 2"):
                    op(M)


class TestCertificate:
    @pytest.mark.parametrize("M", [2, 6, 200])
    @pytest.mark.parametrize("which", ["R1", "R2", "R1+R2"])
    def test_rejects_a_moved_output(self, which, M):
        # Each prox passes its certificate to rounding; the same output
        # with any one entry moved by 1e-6, either way, fails it.
        D, b = SparsePair(M).terms(which)
        rng = np.random.default_rng(M)
        for _ in range(5):
            x = rng.standard_normal(M)
            mu = float(rng.uniform(0.05, 0.8))
            if which == "R1+R2":
                z = prox_row(ChainSumProx(M), x, mu)
            else:
                row = ("R1", "R2").index(which)
                z = CounterexampleProx(M).apply_stack(np.stack([x, x]), mu)[row]
            assert l1_certificate(D, b, x, z, mu) <= 1e-12
            for j in rng.choice(M, size=min(M, 6), replace=False):
                for step in (1e-6, -1e-6):
                    moved = z.copy()
                    moved[j] += step
                    assert l1_certificate(D, b, x, moved, mu) > 1e-12, (j, step)


class TestClosedFormProx:
    def test_operator_is_r1_then_r2(self):
        # Agent 0 holds R1, agent 1 holds R2, each bit for bit the one-row
        # closed form of prox_oracle.  Power-of-two steps put pairs with
        # differences of +-2 mu exactly on the threshold, and row 0's anchor
        # term next to it; signed zeros must come out as they do there.
        for M in (2, 4, 6, 10, 200):
            rng = np.random.default_rng(M)
            for mu in (0.005, 0.125, 0.2, 0.5, 1.0):
                X = rng.standard_normal((2, M))
                X[:, rng.random(M) < 0.2] = -0.0
                X[0, 0] = (1.0 + 2.0 * mu) / np.sqrt(2.0)
                X[1, 0], X[1, 1] = 3.0, 3.0 - 2.0 * mu
                if M >= 4:
                    X[0, 1], X[0, 2] = -2.0 * mu, 0.0
                    X[1, 2], X[1, 3] = -0.0, 2.0 * mu
                out = CounterexampleProx(M).apply_stack(X, mu)
                for row, which in enumerate(("R1", "R2")):
                    ref = prox_counterexample(which, X[row], mu)
                    assert np.array_equal(out[row].view(np.int64),
                                          ref.view(np.int64)), (M, mu, which)

    @pytest.mark.parametrize("K", [1, 3])
    def test_operator_needs_two_rows(self, K):
        op = CounterexampleProx(4)
        with pytest.raises(ValueError, match="2 rows"):
            op.apply_stack(np.zeros((K, 4)), 0.2)

    def test_bad_inputs(self):
        op = CounterexampleProx(4)
        with pytest.raises(ValueError):
            op.apply_stack(np.zeros((2, 3)), 0.1)
        with pytest.raises(ValueError):
            op.apply_stack(np.zeros((2, 4)), 0.0)


class TestChainSum:
    @pytest.mark.parametrize("M", [2, 4, 6])
    def test_against_brute_force(self, M):
        op = ChainSumProx(M)
        rng = np.random.default_rng(M + 100)
        for _ in range(5):
            x = rng.standard_normal(M)
            mu = float(rng.uniform(0.05, 0.6))
            z = prox_row(op, x, mu)
            assert chain_certificate(x, z, mu, tol=1e-12) <= 1e-12
            bf = brute_force_prox(chain_sum(M), x, mu)
            assert np.abs(z - bf).max() <= 1e-3

    def test_weight_scales_regularizer(self):
        x = np.array([2.0, -1.0, 0.5, 0.3])
        half = prox_row(ChainSumProx(4, weight=0.5), x, 0.4)
        full = prox_row(ChainSumProx(4), x, 0.2)
        assert np.allclose(half, full, atol=1e-10)

    def test_optimality_certificate(self):
        # The exact prox satisfies the optimality condition: no coordinate
        # step improves the objective.
        op = ChainSumProx(6)
        x = np.random.default_rng(3).standard_normal(6)
        mu = 0.3
        z = prox_row(op, x, mu)
        R = chain_sum(6)

        def h(v):
            return R(v) + np.dot(v - x, v - x) / (2 * mu)

        h0 = h(z)
        for j in range(6):
            for s in (1e-6, -1e-6):
                zp = z.copy()
                zp[j] += s
                assert h(zp) >= h0 - 1e-10

    def test_repeat_calls_identical(self):
        # A second call at the same point returns the same answer.
        op = ChainSumProx(4)
        x = np.array([1.0, 0.2, -0.5, 0.9])
        assert np.array_equal(prox_row(op, x, 0.25), prox_row(op, x, 0.25))


class TestExactChainProx:
    """The direct O(M) prox of the anchored chain: exact, and stateless."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1),
           st.floats(0.01, 10.0), st.floats(0.01, 100.0))
    def test_dual_certificate(self, half, seed, scale, t):
        x = scale * np.random.default_rng(seed).standard_normal(2 * half)
        z = prox_row(ChainSumProx(2 * half), x, t)
        assert chain_certificate(x, z, t) <= 1e-10

    @pytest.mark.parametrize("M", [200, 2000])
    def test_reference_passes_certificate(self, M):
        # Unit quadratics: one prox-gradient step from 0 lands on w* =
        # prox of 0.5 (R1 + R2) at 0.
        w = centralized_reference(quadratic_cost(1.0, 2, M),
                                  ChainSumProx(M, weight=0.5))
        assert chain_certificate(np.zeros(M), w, 0.5) <= 1e-10

    def test_anchor_jump_spans_both_clips(self):
        # |x[0] - 1/sqrt(2)| < (sqrt(2) - 1) mu: the anchor's jump in the
        # first message crosses -mu and +mu at one point, which leaves two
        # knots there.  z[0] stays anchored, z[1] is pulled down by both of
        # its edges, and z[2] = z[3] fuse.
        x = np.array([0.57374277, 1.82201136, -1.32043097, -0.66152802])
        mu = 0.48
        expected = [1 / np.sqrt(2), x[1] - 2 * mu,
                    (x[2] + x[3] + mu) / 2, (x[2] + x[3] + mu) / 2]
        z = prox_row(ChainSumProx(4), x, mu)
        assert np.allclose(z, expected, rtol=0, atol=1e-15)
        bf = brute_force_prox(chain_sum(4), x, mu)
        assert np.abs(z - bf).max() <= 1e-6

    def test_against_brute_force_m8(self):
        op = ChainSumProx(8)
        rng = np.random.default_rng(0)
        for _ in range(4):
            x = rng.standard_normal(8)
            mu = float(rng.uniform(0.05, 0.6))
            z = prox_row(op, x, mu)
            assert chain_certificate(x, z, mu, tol=1e-12) <= 1e-12
            bf = brute_force_prox(chain_sum(8), x, mu)
            assert np.abs(z - bf).max() <= 1e-6

    def test_nan_bits_same_on_every_call(self):
        # In a fresh interpreter the scalar loop's first call and the later
        # ones gave NaNs of opposite sign; every NaN out is np.nan's.
        src = str(Path(prox_mod.__file__).resolve().parents[1])
        probe = ("import numpy as np; "
                 "from decprox.prox import prox_anchored_chain as p; "
                 "x = np.array([0.3, np.nan, np.inf, -np.inf, 1.2, -0.4]); "
                 "print(*(p(x, 0.1, 0.5, 0.2).tobytes().hex() "
                 "for _ in range(2)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True,
                             timeout=60)
        first, second = out.stdout.split()
        assert first == second == np.full(6, np.nan).tobytes().hex()

    def test_plain_chain_closed_form(self):
        # Without an anchor, two nodes move t toward each other and fuse
        # at their mean once t reaches half the gap.
        z = prox_anchored_chain(np.array([1.0, 0.0]), 0.6, 0.0, 0.0)
        assert np.array_equal(z, [0.5, 0.5])
        z = prox_anchored_chain(np.array([1.0, 0.0]), 0.25, 0.0, 0.0)
        assert np.array_equal(z, [0.75, 0.25])

    def test_identical_rows_bit_identical(self):
        # Also after the two rows were called at different points, as the
        # two agents' rows are on the iterations before they agree.
        op = ChainSumProx(200, weight=0.5)
        x, y = np.random.default_rng(5).standard_normal((2, 200))
        op.apply_stack(np.stack([x, y]), 0.05)
        x = x + 0.01 * y
        out = op.apply_stack(np.stack([x, x]), 0.05)
        assert np.array_equal(out[0], out[1])

    def test_identical_hinted_rows_bit_identical(self):
        # Equal rows with equal hints, here the previous output of one.
        op = ChainSumProx(200, weight=0.5)
        x, y = np.random.default_rng(5).standard_normal((2, 200))
        prev = op.apply_stack(np.stack([x, y]), 0.05)
        x = x + 1e-6 * y
        assert hinted(x, prev[0], 0.025) is not None  # the closed form runs
        seg = _segmentation(prev[0], ANCHOR)
        out = op.apply_stack(np.stack([x, x]), 0.05, hint=Hint([seg, seg]))
        assert np.array_equal(out[0], out[1])

    def test_apply_leaves_no_state(self):
        op = ChainSumProx(10)
        before = dict(vars(op))
        x = np.random.default_rng(6).standard_normal(10)
        first = prox_row(op, x, 0.3)
        op.apply_stack(np.stack([x, -x]), 0.1)
        segs = segments_of(op.apply_stack(np.stack([x, -x]), 0.3))
        out = op.apply_stack(np.stack([x, -x]), 0.3, hint=Hint(segs))
        op.apply_stack(np.stack([-x, x]), 0.3, hint=Hint(segs))
        assert vars(op).keys() == before.keys()
        assert all(vars(op)[k] is v for k, v in before.items())
        assert np.array_equal(prox_row(op, x, 0.3), first)
        assert np.array_equal(
            op.apply_stack(np.stack([x, -x]), 0.3, hint=Hint(segs)), out)

    def test_bad_step_rejected(self):
        op = ChainSumProx(4)
        with pytest.raises(ValueError):
            prox_row(op, np.zeros(4), 0.0)

    @pytest.mark.parametrize("t, anchor_t", [(0.0, 0.1), (-0.1, 0.1),
                                             (0.1, -0.1)])
    def test_bad_chain_weights_rejected(self, t, anchor_t):
        with pytest.raises(ValueError, match="t > 0 and anchor_t >= 0"):
            prox_anchored_chain(np.zeros(4), t, ANCHOR, anchor_t)

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weight must be positive"):
            ChainSumProx(4, weight=weight)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected shape"):
            prox_row(ChainSumProx(4), np.zeros(6), 0.3)

    def test_wrong_hint_shape_rejected(self):
        # A hint holds one segmentation, or None, per row of the stack.
        op = ChainSumProx(4)
        with pytest.raises(ValueError, match="hint has 3 rows, not 2"):
            op.apply_stack(np.zeros((2, 4)), 0.3,
                           hint=Hint(segments_of(np.zeros((3, 4)))))
        with pytest.raises(ValueError, match="hint has 2 rows, not 1"):
            op.apply_stack(np.zeros((1, 4)), 0.3, hint=Hint([None, None]))

    def test_one_dimensional_stack_rejected(self):
        # A stack is K x M: a bare row is not promoted to one.
        op = ChainSumProx(4)
        with pytest.raises(ValueError, match="expected shape"):
            op.apply_stack(np.array([1.0, 0.2, -0.5, 0.9]), 0.1)
        with pytest.raises(ValueError, match="expected shape"):
            op.apply_stack(np.zeros((1, 2, 4)), 0.1)


ANCHOR = 1.0 / np.sqrt(2.0)


def segments_of(stack):
    """The segmentation of each row of a stack: what a Hint carries."""
    return [_segmentation(row, ANCHOR) for row in stack]


def hinted(x, hint, t):
    """The closed form of the prox of t (R1 + R2) on hint's segmentation,
    or None where its certificate fails."""
    return _chain_on(x, _segmentation(hint, ANCHOR), t, ANCHOR,
                     np.sqrt(2.0) * t)


def block_solution(x, seg, t):
    """The block values of the prox of t (R1 + R2) at x on the segmentation
    of seg, in rational arithmetic on the same floating-point inputs and
    rounded once: |B| v_B = sum_B x - [B first] sqrt(2) t u_a - t (s_after
    - s_before), with v_0 = ANCHOR where seg[0] sits there."""
    T, A = Fraction(t), Fraction(np.sqrt(2.0) * t)
    jumps = [int(j) for j in np.flatnonzero(seg[1:] != seg[:-1])]
    s = [1 if seg[j] > seg[j + 1] else -1 for j in jumps]
    bounds = [0] + [j + 1 for j in jumps] + [len(x)]
    z = []
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        rhs = sum(Fraction(v) for v in x[a:b])
        rhs -= T * ((s[i] if i < len(s) else 0) - (s[i - 1] if i else 0))
        if i == 0 and seg[0] != ANCHOR:
            rhs -= A * (1 if seg[0] > ANCHOR else -1)
        v = ANCHOR if i == 0 and seg[0] == ANCHOR else float(rhs / (b - a))
        z += [v] * (b - a)
    return np.array(z)


def piecewise_constant(rng, M):
    cuts = np.sort(rng.choice(np.arange(1, M), size=min(M - 1, 5), replace=False))
    return np.repeat(rng.standard_normal(len(cuts) + 1),
                     np.diff(np.concatenate(([0], cuts, [M]))))


class TestHintedChainProx:
    """The closed form on a hinted segmentation: the dynamic programme's
    answer to rounding whenever its certificate passes, and a fallback to
    the dynamic programme otherwise."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1),
           st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.sampled_from(["perturbed", "piecewise", "zeros"]))
    def test_hinted_is_dp_or_falls_back(self, half, seed, scale, t, kind):
        M = 2 * half
        rng = np.random.default_rng(seed)
        op = ChainSumProx(M)
        x = scale * rng.standard_normal(M)
        if kind == "perturbed":
            hint = prox_row(op, x + 0.05 * scale * rng.standard_normal(M), t)
        elif kind == "piecewise":
            hint = scale * piecewise_constant(rng, M)
        else:
            hint = np.zeros(M)
        dp = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
        z = op.apply_stack(x[None], t, hint=Hint(segments_of(hint[None])))[0]
        assert (np.array_equal(z, dp)
                or np.abs(z - dp).max() <= 1e-12 * np.abs(dp).max())

    @pytest.mark.parametrize("seed", range(5))
    def test_own_and_nearby_segmentations_accepted(self, seed):
        # The engine's case: the hint is the prox of a nearby point.
        rng = np.random.default_rng(seed)
        x, t = rng.standard_normal(200), 0.05
        dp = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
        near = prox_anchored_chain(x + 1e-6 * rng.standard_normal(200), t,
                                   ANCHOR, np.sqrt(2.0) * t)
        for hint in (dp, near):
            z = hinted(x, hint, t)
            assert z is not None
            assert np.abs(z - dp).max() <= 1e-14

    def _three_blocks(self):
        # Blocks {0}, {1, 2, 3} and {4, 5}; z[0] is off the anchor.
        x = np.array([2.0, 1.0, 1.1, 1.05, -1.0, -1.05])
        t = 0.1
        z = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
        assert np.array_equal(np.flatnonzero(np.diff(z)), [0, 3])
        return x, t, z

    def test_wrong_segmentation_rejected(self):
        x, t, z = self._three_blocks()
        assert hinted(x, z, t) is not None
        fused = z.copy()
        fused[4:] = fused[3]          # blocks 1 and 2 fused
        split = z.copy()
        split[2:4] -= 0.01            # block 1 split in two
        for hint in (fused, split):
            assert hinted(x, hint, t) is None

    def test_flipped_jump_sign_rejected(self):
        x, t, z = self._three_blocks()
        flipped = z.copy()
        flipped[4:] = 2 * z[3] - z[4]  # the last jump goes up, not down
        assert np.array_equal(np.flatnonzero(np.diff(flipped)), [0, 3])
        assert hinted(x, flipped, t) is None
        off_anchor = z.copy()
        off_anchor[0] = 2 * ANCHOR - z[0]  # z[0] below the anchor, not above
        assert hinted(x, off_anchor, t) is None

    def test_block_zero_pinned_at_anchor(self):
        # 0 < x[0] - anchor + t < sqrt(2) t: the anchor holds z[0] = anchor,
        # with multiplier u_a = (x[0] - anchor + t) / (sqrt(2) t) inside (-1, 1).
        x = np.array([ANCHOR + 0.01, 2.0, 2.1, 1.9, -1.0, -1.0])
        t = 0.1
        dp = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
        assert dp[0] == ANCHOR
        z = hinted(x, dp, t)
        assert z is not None and z[0] == ANCHOR
        assert np.abs(z - dp).max() <= 1e-15
        assert chain_certificate(x, z, t) <= 1e-10
        # A hint off the anchor is the wrong segmentation here.
        assert hinted(x, np.where(dp == ANCHOR, ANCHOR + 0.1, dp), t) is None

    def test_short_last_block_keeps_full_precision(self):
        # x = 0.5 on a 2000-node chain but for a last node that stands
        # alone.  Its value x[-1] - t read off one global cumsum of x, as
        # cumsum[-1] - cumsum[-2] = 1000.3 - 999.5, loses about 5e-14.
        M, t = 2000, 0.0025
        a = np.sqrt(2.0) * t
        x = np.full(M, 0.5)
        x[-1] = 0.8
        dp = prox_anchored_chain(x, t, ANCHOR, a)
        assert np.array_equal(np.flatnonzero(np.diff(dp)), [0, M - 2])
        # Blocks {0}, {1..M-2}, {M-1}, with jumps down then up, in exact
        # arithmetic on the same floating-point inputs: the dynamic
        # programme is itself about 1e-14 off here.
        T, A = Fraction(t), Fraction(a)
        exact = np.array([float(Fraction(0.5) + A - T)]
                         + [float((999 + 2 * T) / (M - 2))] * (M - 2)
                         + [float(Fraction(0.8) - T)])
        z = hinted(x, dp, t)
        assert z is not None
        assert np.abs(z - exact).max() <= 1e-15
        assert np.abs(dp - exact).max() <= 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_dp_output_solved_on_its_segmentation(self, seed):
        # A long near-constant stretch: the dynamic programme's sums leave
        # it about 2e-11 off the block solution on its own segmentation;
        # apply_stack re-solves that segmentation in closed form.
        M, t = 2000, 0.0025
        x = 0.5 + 1e-5 * np.random.default_rng(seed).standard_normal(M)
        x[-1] += 0.25
        dp = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
        exact = block_solution(x, dp, t)
        assert np.abs(dp - exact).max() > 1e-12
        z = prox_row(ChainSumProx(M), x, t)
        assert np.abs(z - exact).max() <= 1e-15


def hint_of_kind(kind, rng, x, t):
    """A hint for x of one of the kinds the closed form must handle: the
    dynamic programme's own answer, one near it, many short blocks, block 0
    pinned at the anchor, every jump sign flipped, or the zero start."""
    M = len(x)
    dp = prox_anchored_chain(x, t, ANCHOR, np.sqrt(2.0) * t)
    if kind == "dp":
        return dp
    if kind == "near":
        return prox_anchored_chain(x + 1e-6 * rng.standard_normal(M), t,
                                   ANCHOR, np.sqrt(2.0) * t)
    if kind == "many":
        sizes = rng.integers(1, 4, size=M)
        return np.repeat(rng.choice(x, size=M), sizes)[:M]
    if kind == "pinned":
        hint = dp.copy()
        hint[:1 + int(rng.integers(0, M))] = ANCHOR
        return hint
    if kind == "flipped":
        return 2.0 * dp[0] - dp  # same blocks, every jump reversed
    return np.zeros(M)


HINT_KINDS = ["dp", "near", "many", "pinned", "flipped", "zeros"]


def same_closed_form(x, hint, t):
    """The closed form on hint's segmentation and its first form agree
    byte for byte: both None, or the same output.  Returns whether the
    closed form was accepted."""
    a_t = np.sqrt(2.0) * t
    with np.errstate(all="ignore"):
        z = _chain_on(x, _segmentation(hint, ANCHOR), t, ANCHOR, a_t)
        ref = chain_from_hint_reference(x, hint, t, ANCHOR, a_t)
    assert (z is None) == (ref is None)
    assert z is None or same_bytes(z, ref)
    return z is not None


class TestHintedChainMatchesReference:
    """The closed form as the engine runs it against its first form in
    prox_oracle: the output and the None, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1),
           st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.sampled_from(HINT_KINDS))
    def test_hints(self, half, seed, scale, t, kind):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(2 * half)
        same_closed_form(x, hint_of_kind(kind, rng, x, t), t)

    @pytest.mark.parametrize("seed", range(5))
    def test_engine_hints_accepted(self, seed):
        # The hints the engine passes, its previous prox outputs, take the
        # closed form; both forms must accept them.
        rng = np.random.default_rng(seed)
        for M, t in ((200, 0.0025), (2000, 0.0025), (40, 0.05)):
            x = 0.5 + 0.01 * rng.standard_normal(M)
            for kind in ("dp", "near"):
                assert same_closed_form(x, hint_of_kind(kind, rng, x, t), t)

    @pytest.mark.parametrize("seed", range(10))
    def test_special_values(self, seed):
        # +-0, NaN and +-inf in x, in the hint, or in both.
        rng = np.random.default_rng(seed)
        for M in (2, 8, 40):
            t = 0.05
            plain = rng.standard_normal(M)
            special = special_stack(seed, (M,))
            for x in (plain, special):
                for hint in (special, hint_of_kind("dp", rng, plain, t),
                             np.where(special == 0.0, special, 0.0)):
                    same_closed_form(x, hint, t)
                    same_closed_form(x, np.abs(hint), t)


def same_segmentation(a, b):
    """Two _Segmentation tuples equal field by field, dtypes included."""
    return all(
        np.asarray(p).dtype == np.asarray(q).dtype and same_bytes(p, q)
        for p, q in zip(a, b))


class TestCarriedSegmentation:
    """What apply_stack leaves in a Hint (``found``): for every row, its
    output's segmentation, equal to the one derived from the output
    array; and a Hint carrying it gives the output of a Hint of the
    segmentations derived from that array byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100), st.integers(0, 2**32 - 1),
           st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.sampled_from(HINT_KINDS + ["special"]), st.booleans())
    def test_found_is_the_output_segmentation(self, half, seed, scale, t,
                                              kind, special_x):
        # Row 0 is x, +-0, NaN and +-inf among its entries if special_x,
        # with a hint of the kind drawn ("special": with +-0, NaN and
        # +-inf); row 1 is a plain row with the engine's hint.
        M = 2 * half
        rng = np.random.default_rng(seed)
        plain = scale * rng.standard_normal(M)
        x = special_stack(seed, (M,)) if special_x else plain
        hint = (special_stack(seed + 1, (M,)) if kind == "special"
                else hint_of_kind(kind, rng, plain, t))
        X = np.stack([x, plain])
        H = np.stack([hint, hint_of_kind("near", rng, plain, t)])
        op = ChainSumProx(M)
        box = Hint(segments_of(H))
        with np.errstate(all="ignore"):
            out = op.apply_stack(X, t, hint=box)
            for k in range(2):
                assert same_segmentation(box.found[k],
                                         _segmentation(out[k], ANCHOR))
            # The next call, on a nearby point, with the segmentation
            # carried and with one derived from the output array.
            X_next = X + 1e-7 * scale * rng.standard_normal(X.shape)
            carried = Hint(box.found)
            again = op.apply_stack(X_next, t, hint=carried)
            fresh = Hint(segments_of(out))
            assert same_bytes(again, op.apply_stack(X_next, t, hint=fresh))
        for a, b in zip(carried.found, fresh.found):
            assert same_segmentation(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_found_after_a_fallback(self, seed, monkeypatch):
        # With every closed form refused, each row is the dynamic
        # programme's output, and found holds that output's segmentation.
        monkeypatch.setattr(prox_mod, "_chain_on", lambda *a: None)
        rng = np.random.default_rng(seed)
        M, t = 40, 0.05
        X = 0.5 + 0.1 * rng.standard_normal((3, M))
        box = Hint(segments_of(np.zeros((3, M))))
        out = ChainSumProx(M).apply_stack(X, t, hint=box)
        for k in range(3):
            dp = prox_anchored_chain(X[k], t, ANCHOR, np.sqrt(2.0) * t)
            assert same_bytes(out[k], dp)
            assert same_segmentation(box.found[k], _segmentation(dp, ANCHOR))

    def test_found_after_a_nan_fallback(self):
        # A NaN fails every certificate: the row is the dynamic
        # programme's output, and found is still its segmentation.
        x = np.array([[0.3, np.nan, 1.2, -0.4]])
        box = Hint(segments_of(np.zeros((1, 4))))
        with np.errstate(all="ignore"):
            out = ChainSumProx(4).apply_stack(x, 0.1, hint=box)
        assert np.isnan(out).any()
        assert same_segmentation(box.found[0], _segmentation(out[0], ANCHOR))

    def test_output_on_the_anchor_from_a_hint_off_it(self):
        # x = anchor + anchor_t / 2 on both entries: solved as one block off
        # the anchor above it, v[0] lands on the anchor, which the closed
        # form rejects.  The dynamic programme pins entry 0 there, and what
        # apply_stack hands back says so.
        t = 0.1
        a_t = np.sqrt(2.0) * t
        x = np.full(2, ANCHOR + a_t / 2)
        hint = np.full(2, ANCHOR + 1.0)
        assert hinted(x, hint, t) is None
        box = Hint(segments_of(hint[None]))
        z = ChainSumProx(2).apply_stack(x[None], t, hint=box)[0]
        assert z[0] == ANCHOR
        assert box.found[0] is not None and box.found[0].side == 0.0
        assert same_segmentation(box.found[0], _segmentation(z, ANCHOR))

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_without_a_segmentation_run_the_programme(self, seed,
                                                           monkeypatch):
        # No Hint, a Hint of nothing, and a None entry: each such row runs
        # the dynamic programme, and is solved on its segmentation.
        rng = np.random.default_rng(seed)
        M, t = 40, 0.05
        X = 0.5 + 0.1 * rng.standard_normal((2, M))
        op = ChainSumProx(M)
        near = op.apply_stack(X + 1e-6 * rng.standard_normal((2, M)), t)
        calls = []
        dp = prox_mod.prox_anchored_chain
        monkeypatch.setattr(prox_mod, "prox_anchored_chain",
                            lambda *a: calls.append(1) or dp(*a))
        out = op.apply_stack(X, t)
        assert len(calls) == 2
        for hint, runs in ((Hint(), 2), (Hint([None, None]), 2),
                           (Hint([None, _segmentation(near[1], ANCHOR)]), 1)):
            calls.clear()
            assert same_bytes(op.apply_stack(X, t, hint=hint), out)
            assert len(calls) == runs
            for k in range(2):
                assert same_segmentation(hint.found[k],
                                         _segmentation(out[k], ANCHOR))

    @pytest.mark.parametrize("seed, tol", [(None, 1e-12), (1, 1e-10)])
    def test_every_step_of_a_run_certified(self, seed, tol, monkeypatch):
        # ProxED on the M=200 counterexample, each step's prox solved on
        # the segmentation carried from the step before: every output row
        # of every step passes the chain's certificate.  From the zero
        # start to 1e-12; from a seeded start, whose rows keep falling
        # back to the dynamic programme, to the 1e-10 of the chain's other
        # certificates.
        cfg = cli.config_from_dict({
            **cli.COUNTEREXAMPLE_PRESET, "M": 200, "iters": 300,
            "algorithms": [{"name": "ProxED", "mu": 0.005}]})
        p = cli.build_problem(cfg)
        r = cli.resolve_algorithm(cfg.algorithms[0], cfg, p)
        calls = []
        apply_stack = ChainSumProx.apply_stack

        def recorded(op, X, mu, hint=None):
            carried = hint.segments is not None
            out = apply_stack(op, X, mu, hint=hint)
            calls.append((X.copy(), mu * op.weight, out.copy(), carried))
            return out

        monkeypatch.setattr(ChainSumProx, "apply_stack", recorded)
        record = engine.run(r.algorithm, r.step, p.costs, p.w_star, 300,
                            seed=seed)
        assert not record.diverged and len(calls) == 300
        assert sum(carried for *_, carried in calls) == 299
        D, b = SparsePair(200).terms("R1+R2")
        for i, (X, t, out, _) in enumerate(calls):
            for k in range(2):
                assert l1_certificate(D, b, X[k], out[k], t, tol) <= tol, (i, k)

    def test_array_and_no_hint_leave_nothing(self):
        # Only the chain prox writes to a Hint; other operators leave it
        # as it was.
        x = np.array([[1.0, 0.2, -0.5, 0.9]])
        for op in (L1Prox(0.5), ZeroProx()):
            box = Hint(segments_of(x))
            op.apply_stack(x, 0.1, hint=box)
            assert box.found is None


class TestNonexpansiveness:
    # Prox operators of convex functions are 1-Lipschitz.

    def _check(self, op, M, mu, n_pairs, seed, slack=0.0, K=1):
        # Row by row, over pairs of random K x M stacks.
        rng = np.random.default_rng(seed)
        for _ in range(n_pairs):
            X = rng.standard_normal((K, M))
            Y = rng.standard_normal((K, M))
            d_out = np.linalg.norm(op.apply_stack(X, mu) - op.apply_stack(Y, mu),
                                   axis=1)
            d_in = np.linalg.norm(X - Y, axis=1)
            assert (d_out <= d_in + slack).all()

    def test_l1(self):
        self._check(L1Prox(0.7), 5, 0.3, 1000, 0)

    def test_zero(self):
        self._check(ZeroProx(), 5, 0.3, 200, 1)

    def test_counterexample_ops(self):
        self._check(CounterexampleProx(6), 6, 0.4, 1000, 2, K=2)

    def test_chain_sum(self):
        # An exact prox: allow only rounding as slack.
        self._check(ChainSumProx(4), 4, 0.4, 60, 4, slack=1e-14)


class TestBruteForce:
    def test_matches_l1(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(3)
            mu = float(rng.uniform(0.1, 1.0))
            bf = brute_force_prox(lambda z: np.abs(z).sum(), x, mu)
            assert np.abs(bf - prox_l1(x, mu)).max() <= 1e-4

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            brute_force_prox(lambda z: 0.0, np.zeros(9), 0.1)

