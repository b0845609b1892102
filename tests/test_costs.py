import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from decprox import costs
from decprox.costs import (
    Dataset,
    SmoothCostSet,
    logistic_cost,
    partition_data,
    quadratic_cost,
    read_libsvm,
    synthetic_classification,
)

import cost_oracle
from cost_oracle import random_quadratic_set
from test_engine import same_bytes


def finite_diff_grad(f, w, eps=1e-6):
    g = np.empty_like(w)
    for j in range(w.size):
        wp, wm = w.copy(), w.copy()
        wp[j] += eps
        wm[j] -= eps
        g[j] = (f(wp) - f(wm)) / (2 * eps)
    return g


def agent_grad(costs, k, w):
    """Agent k's gradient at w: row k of the stacked gradient."""
    return costs.grad_stack(np.tile(w, (costs.K, 1)))[k]


def check_gradients(costs, agent_costs, n_points=20, seed=0, rtol=1e-6):
    """The stacked gradient against finite differences of each agent's
    cost, from ``agent_costs``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        k = int(rng.integers(costs.K))
        w = rng.standard_normal(costs.M)
        g = agent_grad(costs, k, w)
        g_fd = finite_diff_grad(lambda v: agent_costs.eval(k, v), w)
        assert np.linalg.norm(g - g_fd) <= rtol * max(1.0, np.linalg.norm(g))


class TestQuadratic:
    def test_values_and_gradients(self):
        t = np.arange(6.0).reshape(2, 3)
        costs = quadratic_cost(2.0, 2, 3, targets=t)
        agent_costs = cost_oracle.quadratic_cost(2.0, 2, 3, targets=t)
        w = np.array([1.0, 1.0, 1.0])
        assert agent_costs.eval(0, w) == pytest.approx(np.sum((w - t[0]) ** 2))
        assert np.allclose(agent_grad(costs, 1, w), 2.0 * (w - t[1]))
        assert costs.nu == costs.delta == 2.0

    def test_grad_stack_matches_per_agent(self):
        costs = random_quadratic_set(4, 5, seed=2)
        agent_costs = cost_oracle.random_quadratic_cost(4, 5, seed=2)
        W = np.random.default_rng(0).standard_normal((4, 5))
        G = costs.grad_stack(W)
        for k in range(4):
            assert np.allclose(G[k], agent_costs.grad(k, W[k]))

    def test_random_quadratic_curvature_is_tight(self):
        costs = random_quadratic_set(3, 6, seed=9, nu_min=0.4, delta_max=3.0)
        # Hessians are exposed through gradients of linear functions.
        for k in range(3):
            H = np.stack([agent_grad(costs, k, e) - agent_grad(costs, k, np.zeros(6))
                          for e in np.eye(6)]).T
            eig = np.linalg.eigvalsh(H)
            assert eig.min() >= 0.4 - 1e-10
            assert eig.max() <= 3.0 + 1e-10

    def test_finite_differences(self):
        check_gradients(random_quadratic_set(3, 4, seed=5),
                        cost_oracle.random_quadratic_cost(3, 4, seed=5))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            quadratic_cost(0.0, 2, 3)
        with pytest.raises(ValueError):
            quadratic_cost(1.0, 2, 3, targets=np.zeros((3, 3)))


class TestLogistic:
    def setup_method(self):
        data = synthetic_classification(120, 8, seed=1)
        self.shards = partition_data(data, 4, seed=0)
        self.costs = logistic_cost(self.shards, lam=0.01)
        self.agent_costs = cost_oracle.logistic_cost(self.shards, lam=0.01)

    def test_finite_differences(self):
        # 100 random (agent, point) checks at 1e-6 relative accuracy.
        check_gradients(self.costs, self.agent_costs, n_points=100, seed=3)

    def test_constants_bound_curvature(self):
        nu, delta = self.costs.nu, self.costs.delta
        assert nu == pytest.approx(0.01)
        assert delta > nu
        # Numerical Hessians at random points must respect [nu, delta].
        rng = np.random.default_rng(4)
        eps = 1e-5
        for _ in range(5):
            k = int(rng.integers(4))
            w = rng.standard_normal(8)
            H = np.stack([
                (agent_grad(self.costs, k, w + eps * e)
                 - agent_grad(self.costs, k, w - eps * e))
                / (2 * eps) for e in np.eye(8)
            ]).T
            eig = np.linalg.eigvalsh(0.5 * (H + H.T))
            assert eig.min() >= nu - 1e-6
            assert eig.max() <= delta + 1e-6

    def test_rejects_bad_lambda_and_empty_shard(self):
        with pytest.raises(ValueError):
            logistic_cost(self.shards, lam=0.0)
        empty = Dataset(sp.csr_matrix((0, 8)), np.zeros(0))
        with pytest.raises(ValueError):
            logistic_cost([empty], lam=0.1)


@st.composite
def logistic_problem(draw):
    """Unequal shards of sparse data with an all-zero feature column, and
    an iterate stack at one of three scales."""
    K = draw(st.integers(2, 6))
    M = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, 12), min_size=K, max_size=K,
                          unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = sum(sizes)
    X = rng.standard_normal((N, M)) * (rng.random((N, M)) < 0.6)
    X[:, draw(st.integers(0, M - 1))] = 0.0
    d = Dataset(sp.csr_matrix(X), rng.choice([-1.0, 1.0], size=N))
    ends = np.cumsum(sizes)
    shards = [d.subset(np.arange(e - n, e)) for n, e in zip(sizes, ends)]
    W = rng.standard_normal((K, M)) * draw(st.sampled_from([0.1, 1.0, 30.0]))
    return shards, W


class TestStackedGradient:
    """grad_stack, one vectorised kernel per family, and average_grad
    against the per-agent gradients of ``cost_oracle``."""

    @settings(max_examples=60, deadline=None)
    @given(logistic_problem(), st.sampled_from([1e-4, 0.01, 1.0]))
    def test_logistic_bit_identical(self, problem, lam):
        shards, W = problem
        costs = logistic_cost(shards, lam)
        ref = cost_oracle.logistic_cost(shards, lam)
        assert same_bytes(costs.grad_stack(W), ref.grad_stack(W))
        # The reference solver's average gradient, every agent at one point.
        assert same_bytes(costs.average_grad(W[0]), ref.average_grad(W[0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1),
           st.floats(0.1, 10.0))
    def test_quadratic_bit_identical(self, K, M, seed, eta):
        rng = np.random.default_rng(seed)
        targets = rng.standard_normal((K, M))
        costs = quadratic_cost(eta, K, M, targets=targets)
        ref = cost_oracle.quadratic_cost(eta, K, M, targets=targets)
        W = rng.standard_normal((K, M))
        assert same_bytes(costs.grad_stack(W), ref.grad_stack(W))
        assert same_bytes(costs.average_grad(W[0]), ref.average_grad(W[0]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_random_quadratic_matches(self, K, M, seed):
        costs = random_quadratic_set(K, M, seed=seed)
        agent_costs = cost_oracle.random_quadratic_cost(K, M, seed=seed)
        W = np.random.default_rng(seed).standard_normal((K, M))
        G, ref = costs.grad_stack(W), agent_costs.grad_stack(W)
        assert np.abs(G - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)
        assert np.array_equal(costs.average_grad(W[0]),
                              agent_costs.average_grad(W[0]))

    @pytest.mark.parametrize("family", ["quadratic", "random_quadratic",
                                        "logistic"])
    def test_new_array_input_untouched(self, family):
        # A kernel may work in place on its own buffers, never on W: the
        # engine keeps W and its gradient in one state.  W is taken C- and
        # Fortran-ordered, as a strided view, and with signed zeros.
        K, M = 4, 3
        rng = np.random.default_rng(5)
        costs = {
            "quadratic": lambda: quadratic_cost(
                2.0, K, M, targets=rng.standard_normal((K, M))),
            "random_quadratic": lambda: random_quadratic_set(K, M, seed=2),
            "logistic": lambda: logistic_cost(partition_data(
                synthetic_classification(40, M, seed=2), K), 0.01),
        }[family]()
        W = rng.standard_normal((K, 2 * M))
        W[rng.random(W.shape) < 0.3] = -0.0
        for view in (W[:, :M].copy(), np.asfortranarray(W[:, :M]),
                     W[:, ::2]):
            before = view.tobytes()
            G = costs.grad_stack(view)
            assert G.shape == (K, M)
            assert not np.shares_memory(G, view)
            assert not np.shares_memory(G, W)
            assert view.tobytes() == before

    def test_average_grad_is_one_stacked_evaluation(self, monkeypatch):
        costs = random_quadratic_set(4, 3, seed=1)
        calls = []
        grad_stack = costs.grad_stack
        monkeypatch.setattr(costs, "grad_stack",
                            lambda W: calls.append(W.shape) or grad_stack(W))
        costs.average_grad(np.ones(3))
        assert calls == [(4, 3)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.booleans())
    def test_average_grad_adds_rows_in_order(self, K, M, seed, fortran):
        # K reaches past 8, where a pairwise sum would regroup the rows, and
        # M = 1 and Fortran-ordered stacks make the agent axis contiguous.
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((K, M)) * 10.0 ** rng.integers(-8, 9, (K, M))
        G[rng.random((K, M)) < 0.3] = -0.0
        G = np.asfortranarray(G) if fortran else G
        costs = SmoothCostSet(lambda W: G, nu=1.0, delta=1.0, K=K, M=M)
        expected = np.zeros(M)
        for row in G:
            expected += row
        expected /= K
        assert np.array_equal(costs.average_grad(np.zeros(M)).view(np.int64),
                              expected.view(np.int64))

    @pytest.mark.parametrize("nu, delta", [(2.0, 1.0), (0.0, 1.0)])
    def test_curvature_out_of_order_rejected(self, nu, delta):
        with pytest.raises(ValueError, match="0 < nu <= delta"):
            SmoothCostSet(lambda W: W, nu=nu, delta=delta, K=2, M=3)

    def test_average_grad_keeps_signed_zeros(self):
        # Every agent's gradient is -0.0; the per-agent loop, started at
        # 0.0, returns +0.0.
        K, M = 12, 3
        costs = quadratic_cost(1.0, K, M)
        ref = cost_oracle.quadratic_cost(1.0, K, M)
        w = np.full(M, -0.0)
        assert np.signbit(costs.grad_stack(np.tile(w, (K, 1)))).all()
        g, g_ref = costs.average_grad(w), ref.average_grad(w)
        assert not np.signbit(g_ref).any()
        assert np.array_equal(np.signbit(g), np.signbit(g_ref))
        assert np.array_equal(g, g_ref)


class TestLogisticConstants:
    """delta from one block-diagonal Gram product against one Gram matrix
    per shard (``cost_oracle.logistic_constants``), bit for bit."""

    def test_edge_shards(self):
        # Unequal shards; column 2 empty in shard 1 only; an all-zero
        # sample in shard 2; a one-sample shard.
        rng = np.random.default_rng(11)
        sizes, M = [5, 9, 4, 1], 6
        X = rng.standard_normal((sum(sizes), M)) * (rng.random((sum(sizes), M)) < 0.7)
        X[5:14, 2] = 0.0
        X[15] = 0.0
        d = Dataset(sp.csr_matrix(X), rng.choice([-1.0, 1.0], size=sum(sizes)))
        ends = np.cumsum(sizes)
        shards = [d.subset(np.arange(e - n, e)) for n, e in zip(sizes, ends)]
        assert shards[1].features[:, 2].nnz == 0 and shards[0].features[:, 2].nnz
        assert shards[2].features[1].nnz == 0
        for lam in (1e-4, 0.01, 1.0):
            costs = logistic_cost(shards, lam)
            assert (costs.nu, costs.delta) == cost_oracle.logistic_constants(shards, lam)

    @settings(max_examples=60, deadline=None)
    @given(logistic_problem(), st.sampled_from([1e-4, 0.01, 1.0]))
    def test_constants_bit_identical(self, problem, lam):
        shards, _ = problem
        costs = logistic_cost(shards, lam)
        assert (costs.nu, costs.delta) == cost_oracle.logistic_constants(shards, lam)


class TestData:
    def test_partition_disjoint_union(self):
        data = synthetic_classification(103, 5, seed=7)
        shards = partition_data(data, 10, seed=1)
        sizes = [len(s) for s in shards]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        stacked = sp.vstack([s.features for s in shards]).toarray()
        orig = data.features.toarray()
        # Every original row appears exactly once across the shards.
        seen = {tuple(r) for r in stacked}
        assert seen == {tuple(r) for r in orig}

    def test_partition_deterministic(self):
        data = synthetic_classification(50, 4, seed=2)
        a = partition_data(data, 5, seed=3)
        b = partition_data(data, 5, seed=3)
        for s, t in zip(a, b):
            assert np.array_equal(s.features.toarray(), t.features.toarray())
            assert np.array_equal(s.labels, t.labels)

    def test_partition_too_small(self):
        data = synthetic_classification(3, 4)
        with pytest.raises(ValueError):
            partition_data(data, 5)

    def test_synthetic_unit_norm_and_labels(self):
        data = synthetic_classification(60, 7, seed=0, flip_prob=0.2)
        X = data.features.toarray()
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.eye(3)), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            Dataset(sp.csr_matrix(np.eye(2)), np.array([1.0, 2.0]))


class TestLibsvm:
    def test_basic_line_with_label_map(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 3:0.5 7:1.0\n0 1:2.0\n")
        d = read_libsvm(p, label_map=(1, 0))
        assert d.labels.tolist() == [1.0, -1.0]
        X = d.features.toarray()
        assert X.shape == (2, 7)
        assert X[0, 2] == 0.5 and X[0, 6] == 1.0 and X[1, 0] == 2.0

    def test_normalization(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:3 2:4\n")
        d = read_libsvm(p, normalize=True)
        assert np.allclose(d.features.toarray(), [[0.6, 0.8]])

    def test_round_trip_norms(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(25):
            feats = " ".join(f"{j + 1}:{rng.standard_normal():.6f}"
                             for j in range(10) if rng.random() < 0.6)
            lines.append(f"{1 if i % 2 else -1} {feats}")
        p = tmp_path / "d.txt"
        p.write_text("\n".join(lines) + "\n")
        d = read_libsvm(p, normalize=True)
        norms = np.linalg.norm(d.features.toarray(), axis=1)
        assert np.allclose(norms[norms > 0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("feats", ["1:nan", "2:inf", "1:-inf 2:1",
                                       "1:inf 1:-inf", "1:1e308 1:1e308"])
    def test_non_finite_value_rejected(self, tmp_path, feats, normalize):
        # Also where row scaling would turn an infinite row into zeros,
        # and where repeats of an index would add up to a NaN, or finite
        # repeats to an infinity.
        p = tmp_path / "d.txt"
        p.write_text(f"1 1:0.5\n-1 {feats}\n")
        with pytest.raises(ValueError) as e:
            read_libsvm(p, normalize=normalize)
        assert str(e.value) == f"{p} holds a non-finite feature value"

    def test_normalize_under_or_overflowing_rows(self, tmp_path):
        # A nonzero row whose squared norm is inf, 0 or subnormal is
        # divided by its largest |value| first; the other rows keep their
        # bits.
        plain = ["-1 1:3 2:4", "1 1:0.1 3:-7e-3", "1", "-1 2:0"]
        odd = ["1 1:1e200 2:1", "1 1:1e-200 2:1e-200", "-1 3:-5e-324",
               "1 1:3e-162 2:3e-162"]
        p, q = tmp_path / "d.txt", tmp_path / "plain.txt"
        p.write_text("\n".join(plain[:2] + odd + plain[2:]) + "\n")
        q.write_text("\n".join(plain) + "\n")
        X = read_libsvm(p, normalize=True).features.toarray()
        h = 1.0 / np.sqrt(2.0)
        assert np.array_equal(X[2:6], [[1.0, 1.0 / 1e200, 0.0], [h, h, 0.0],
                                       [0.0, 0.0, -1.0], [h, h, 0.0]])
        assert same_bytes(np.delete(X, [2, 3, 4, 5], axis=0),
                          read_libsvm(q, normalize=True).features.toarray())

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 1:0.5\n-1 2:oops\n")
        with pytest.raises(ValueError, match=":2:"):
            read_libsvm(p)

    def test_unmapped_label(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("3 1:0.5\n")
        with pytest.raises(ValueError, match="label"):
            read_libsvm(p)
        with pytest.raises(ValueError, match="not in map"):
            read_libsvm(p, label_map=(1, 0))

    def test_zero_based_index_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1 0:0.5\n")
        with pytest.raises(ValueError, match="1-based"):
            read_libsvm(p)


# Each malformed token or label, and the check of the reference reader it
# fails: a bad label, a token without exactly one ':', a non-integer
# index, an index below 1, a bad value, an unmapped label.
_BAD_LABELS = ["x", "1x", "--1", "1:2", "3", "0.5"]
_BAD_TOKENS = ["5", "1:2:3", ":", "a:1", "1.5:2", ":2", "0:1", "-2:1",
               "1:abc", "1:", "1:1e", "2:0x1"]
_SEPS = [" ", "\t", "  ", " \t "]
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["0", "-0", "1e-3", "+2.5", ".5", "-0.0", "7."]))
# Each label_map with raw labels it maps; None maps +1/1/1.0 and -1/0.
_LABELS = {None: ["+1", "1", "1.0", "-1", "0", "-0", "-1.0"],
           (1, 0): ["1", "+1", "0", "-0", "1.0"],
           (2.0, -3.0): ["2", "2.0", "-3", "-3.0"]}


@st.composite
def libsvm_text(draw, corruptions=0):
    """A LIBSVM file as text: comments, blank lines, tabs, CRLF, label-only
    lines, duplicate and unsorted indices; then ``corruptions`` data lines
    each given a bad label, a bad token or both.  Returns (text,
    label_map)."""
    label_map = draw(st.sampled_from(list(_LABELS)))
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["data", "data", "data", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "#", "  # 1:2 x"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            feats = draw(st.lists(st.tuples(st.integers(1, 9), _VALUES), max_size=6))
            lines.append([draw(st.sampled_from(_LABELS[label_map]))]
                         + [f"{i}:{v}" for i, v in feats])
    for _ in range(corruptions):
        toks = [draw(st.sampled_from(_LABELS[label_map]))] + draw(
            st.sampled_from([[], ["1:0.5"], ["3:1", "2:-1"]]))
        where = draw(st.sampled_from(["label", "token", "both"]))
        if where != "token":
            toks[0] = draw(st.sampled_from(_BAD_LABELS))
        if where != "label":
            toks.insert(draw(st.integers(1, len(toks))),
                        draw(st.sampled_from(_BAD_TOKENS)))
        lines.insert(draw(st.integers(0, len(lines))), toks)
    rendered = []
    for line in lines:
        if isinstance(line, list):
            sep = draw(st.sampled_from(_SEPS))
            line = (draw(st.sampled_from(["", " ", "\t"])) + sep.join(line)
                    + draw(st.sampled_from(["", " ", " # note", "\t#"])))
        rendered.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(rendered) + draw(st.sampled_from(["", eol])), label_map


def _read_both(path, normalize, label_map):
    """(result or error message) of decprox's reader and the reference's."""
    out = []
    for reader in (read_libsvm, cost_oracle.read_libsvm):
        try:
            out.append(reader(path, normalize=normalize, label_map=label_map))
        except ValueError as e:
            out.append(str(e))
    return out


class TestLibsvmAgainstReference:
    """The bulk reader against the token-by-token reader of
    ``cost_oracle``: equal arrays, dtypes and labels on valid files, and
    the same message on malformed ones."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(libsvm_text(), st.booleans())
    def test_same_dataset(self, tmp_path, text_map, normalize):
        text, label_map = text_map
        path = tmp_path / "d.svm"
        path.write_bytes(text.encode())
        got, ref = _read_both(path, normalize, label_map)
        if isinstance(ref, str):  # repeats of an index summed past the range
            assert ref.endswith(" holds a non-finite feature value"), ref
            assert got == ref
            return
        assert not isinstance(got, str), got
        A, B = got.features, ref.features
        assert A.shape == B.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8)), name
        assert got.labels.dtype == ref.labels.dtype
        assert np.array_equal(got.labels, ref.labels)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 2).flatmap(lambda n: libsvm_text(corruptions=n)),
           st.booleans())
    def test_same_error(self, tmp_path, text_map, normalize):
        text, label_map = text_map
        path = tmp_path / "d.svm"
        path.write_bytes(text.encode())
        got, ref = _read_both(path, normalize, label_map)
        assert isinstance(ref, str)
        assert got == ref

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2).flatmap(lambda n: libsvm_text(corruptions=n)),
           st.integers(1, 4))
    def test_any_block_size(self, tmp_path, monkeypatch, text_map, block):
        # Read a few lines at a time, a file gives the same dataset, or
        # names the same first bad line, as the reference.
        monkeypatch.setattr(costs, "LIBSVM_BLOCK", block)
        text, label_map = text_map
        path = tmp_path / "d.svm"
        path.write_bytes(text.encode())
        got, ref = _read_both(path, False, label_map)
        if isinstance(ref, str):
            assert got == ref
            return
        A, B = got.features, ref.features
        assert A.shape == B.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(A, name), getattr(B, name)
            assert a.dtype == b.dtype and same_bytes(a, b), name
        assert (got.labels.dtype == ref.labels.dtype
                and same_bytes(got.labels, ref.labels))
