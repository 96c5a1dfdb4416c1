import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprune import nn, pruning
from fedprune.federation import RoundPlan, stage_keep_config
from fedprune.pruning import (ADMMState, KeptEntries, SparsityConfig, admm_init,
                              admm_update, compression_rate, euclidean_project,
                              final_hard_prune)
from reference import brute_force_project, ref_admm_update, reference_project, same_bytes

# canonical per-layer keep tables for the 431,080-parameter LeNet variant
LENET_KEEP_CR10 = {"conv1": 0.8, "conv2": 0.4, "fc1": 30193 / 400000, "fc2": 0.5}
LENET_KEEP_CR87 = {"conv1": 0.5, "conv2": 0.06, "fc1": 2201 / 400000, "fc2": 0.2}


class TestEuclideanProject:
    def test_magnitude_order(self):
        assert np.array_equal(euclidean_project(np.array([3.0, -1.0, 2.0]), 2),
                              [3.0, 0.0, 2.0])

    def test_keep_all_is_identity(self):
        t = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(euclidean_project(t, 6), t)

    def test_tie_breaks_to_lowest_index(self):
        assert np.array_equal(euclidean_project(np.array([2.0, -2.0, 1.0]), 1),
                              [2.0, 0.0, 0.0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            euclidean_project(np.ones(3), 4)
        with pytest.raises(ValueError):
            euclidean_project(np.ones(3), -1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            size = int(rng.integers(1, 13))
            t = np.round(rng.normal(size=size), 3)
            n = int(rng.integers(0, size + 1))
            got = euclidean_project(t, n)
            want = brute_force_project(t, n)
            assert np.array_equal(got, want), (t, n)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=8), st.data())
    def test_hypothesis_distance_minimal(self, values, data):
        t = np.array(values, dtype=float)
        n = data.draw(st.integers(0, len(values)))
        got = euclidean_project(t, n)
        assert np.count_nonzero(got) <= n
        best = min(np.sum((brute_force_project(t, k) - t) ** 2)
                   for k in range(n + 1))
        assert np.sum((got - t) ** 2) <= best + 1e-12


SPECIALS = (float("nan"), float("inf"), float("-inf"), -0.0)


@st.composite
def tied_tensors(draw):
    """Small-integer tensors (heavy ties) with NaN, +-inf and -0.0 mixed in,
    float32 or float64, 1-D or 4-D; paired with an n_keep in range."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(*[st.integers(1, 3)] * 4)))
    size = int(np.prod(shape))
    values = draw(st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.sampled_from(SPECIALS)),
        min_size=size, max_size=size))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    t = np.array(values, dtype=dtype).reshape(shape)
    n_keep = draw(st.one_of(st.sampled_from([0, 1, size - 1, size]),
                            st.integers(0, size)))
    return t, max(0, n_keep)


def assert_matches_reference(t, n_keep):
    before = t.tobytes()
    got = euclidean_project(t, n_keep)
    want = reference_project(t, n_keep)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (t, n_keep)
    assert t.tobytes() == before                 # input not mutated
    assert not np.shares_memory(got, t)


class TestProjectionOracle:
    @settings(max_examples=400, deadline=None)
    @given(tied_tensors())
    def test_bit_identical_to_argsort(self, case):
        assert_matches_reference(*case)

    @pytest.mark.parametrize("shape", [(20, 1, 5, 5), (50, 20, 5, 5), (800, 500), (10, 500)])
    def test_lenet_shapes_bit_identical(self, shape):
        # rounded to 2 decimals so thousands of magnitudes tie; NaN, +-inf
        # and -0.0 scattered in; every CR~87 and CR~10 budget of a LeNet layer
        rng = np.random.default_rng(sum(shape))
        for dtype in (np.float64, np.float32):
            t = np.round(rng.normal(scale=0.1, size=shape), 2).astype(dtype)
            flat = t.reshape(-1)
            for value in SPECIALS:
                flat[rng.integers(0, flat.size, 3)] = value
            size = t.size
            for n_keep in {1, size // 2, size - 1, max(1, round(0.0055025 * size)),
                           max(1, round(0.06 * size)), round(0.8 * size)}:
                assert_matches_reference(t, n_keep)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape, n_pos", [((1000,), 40), ((800, 500), 2201), ((2, 4, 5), 19)])
    def test_mostly_zero_bit_identical(self, dtype, shape, n_pos):
        # fewer than half the magnitudes positive, as in a projected upload:
        # tied values, +-inf, and NaN and -0.0 among the rest; n_keep below,
        # at and above the positive count
        rng = np.random.default_rng(n_pos)
        t = np.zeros(shape, dtype)
        flat = t.reshape(-1)
        at = rng.permutation(flat.size)
        tied = np.round(rng.normal(size=n_pos), 1)
        flat[at[:n_pos]] = np.where(tied == 0, 0.5, tied)     # every one positive
        flat[at[:2]] = np.inf, -np.inf
        flat[at[n_pos:n_pos + 3]] = np.nan
        flat[at[n_pos + 3:n_pos + 6]] = -0.0
        assert np.count_nonzero(np.abs(flat) > 0) == n_pos
        for n_keep in {1, n_pos // 2, n_pos - 1, n_pos, n_pos + 1, n_pos + 4, flat.size - 1}:
            assert_matches_reference(t, n_keep)

    def test_all_nan_and_all_tied(self):
        for t in (np.full(7, np.nan), np.full((2, 3), -2.0), np.zeros(5)):
            for n_keep in range(t.size + 1):
                assert_matches_reference(t, n_keep)


# +-0.0, NaN, +-inf, and magnitudes that are zero in fp32 (1e-46) or an
# fp32 subnormal (1e-40)
EDGE_VALUES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               1e-46, -1e-46, 1e-40)


@st.composite
def edge_tensors(draw):
    """Tensors of rank 1, 2 or 4, float32 or float64, of small integers (so
    the threshold is tied) and EDGE_VALUES, sometimes all zero or with
    zeroed leading-axis slices (empty CSR rows); with an n_keep in range."""
    shape = draw(st.one_of(st.tuples(st.integers(1, 30)),
                           st.tuples(st.integers(1, 6), st.integers(1, 6)),
                           st.tuples(*[st.integers(1, 3)] * 4)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.one_of(st.integers(-3, 3).map(float),
                                     st.sampled_from(EDGE_VALUES)),
                           min_size=size, max_size=size))
    t = np.array(values, dtype=draw(st.sampled_from([np.float32, np.float64])))
    t = t.reshape(shape)
    zero_rows = draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0]))
    t[zero_rows] = 0.0
    if draw(st.booleans()) and draw(st.booleans()):
        t[...] = 0.0
    n_keep = draw(st.one_of(st.sampled_from([0, 1, size - 1, size]),
                            st.integers(0, size)))
    return t, max(0, n_keep)


class TestScatterProjection:
    @settings(max_examples=400, deadline=None)
    @given(edge_tensors())
    def test_bit_identical_to_argsort(self, case):
        assert_matches_reference(*case)

    def test_ties_at_the_threshold_lenet_fc1(self):
        # fc1-sized, rounded so the 27% budget ends inside a run of ties
        rng = np.random.default_rng(4)
        t = np.round(rng.normal(scale=0.05, size=(800, 500)), 2)
        t.reshape(-1)[rng.integers(0, t.size, 40)] = np.array(EDGE_VALUES * 5)
        for n_keep in (108_000, 2_201, 1):
            assert_matches_reference(t, n_keep)


def two_layer_params(w1, w2=None):
    entries = [nn.LayerParams("a", np.asarray(w1, dtype=float), np.zeros(1))]
    if w2 is not None:
        entries.append(nn.LayerParams("b", np.asarray(w2, dtype=float), np.zeros(1)))
    return nn.ParameterSet(tuple(entries))


def dense_state(z, u):
    """An ADMMState from dense Z and U tensors."""
    return ADMMState(z={lid: KeptEntries.of(np.asarray(t, dtype=float)) for lid, t in z.items()},
                     u={lid: np.asarray(t, dtype=float) for lid, t in u.items()})


class TestAdmm:
    def test_init_projection_fixed_point(self):
        params = two_layer_params([3.0, 0.0, 0.0, -2.0])
        cfg = SparsityConfig(keep={"a": 0.5}, rho=1e-3)
        st_ = admm_init(params, cfg)
        assert np.array_equal(st_.z["a"].dense(), params["a"].weight)
        assert np.all(st_.u["a"] == 0.0)
        assert st_.step == 0

    def test_init_respects_budget(self):
        rng = np.random.default_rng(0)
        params = two_layer_params(rng.normal(size=10), rng.normal(size=8))
        cfg = SparsityConfig(keep={"a": 0.3, "b": 0.25})
        st_ = admm_init(params, cfg)
        assert np.count_nonzero(st_.z["a"].dense()) <= 3
        assert np.count_nonzero(st_.z["b"].dense()) <= 2

    def test_reg_gradient_zero_at_consensus(self, fixed_grad_round):
        # keep 1.0 makes Z = W and U = 0: with no loss gradient the penalty
        # term moves neither weights nor biases
        params = two_layer_params([1.0, 2.0], [3.0])
        cfg = SparsityConfig(keep={"a": 1.0})
        upd, st_ = fixed_grad_round(params, [two_layer_params([0.0, 0.0], [0.0])],
                                    RoundPlan("admm_prune", cfg, False), lr=1.0)
        for e, u in zip(params.entries, upd.entries):
            assert np.array_equal(u.weight, e.weight)
            assert np.array_equal(u.bias, e.bias)
        assert np.all(st_.u["a"] == 0.0)

    def test_reg_gradient_arithmetic(self, fixed_grad_round):
        # one step of lr 0.1 with no loss gradient: W - 0.1 * rho * (W - Z + U);
        # no penalty on biases or on the unconstrained layer b
        params = two_layer_params([1.0, 0.0], [4.0])
        st_ = dense_state(z={"a": [0.0, 0.0]}, u={"a": [0.5, 0.0]})
        cfg = SparsityConfig(keep={"a": 1.0}, rho=2.0)
        upd, _ = fixed_grad_round(params, [two_layer_params([0.0, 0.0], [0.0])],
                                  RoundPlan("admm_prune", cfg, False), state=st_)
        assert np.allclose(upd["a"].weight, [0.7, 0.0])
        assert np.array_equal(upd["b"].weight, [4.0])
        assert np.all(upd["a"].bias == 0.0)

    def test_z_step_examples(self):
        # Z is the projection of W + U; the Z held before the update is unused
        params = two_layer_params([1.0, -3.0, 2.0, 0.0])
        cfg = SparsityConfig(keep={"a": 0.5})
        st_ = dense_state(z={"a": [9.0, 0.0, 0.0, 9.0]}, u={"a": [0.0, 0.0, 0.0, 2.5]})
        st2 = admm_update(params, st_, cfg)
        assert np.array_equal(st2.z["a"].dense(), [0.0, -3.0, 0.0, 2.5])
        assert np.count_nonzero(st2.z["a"].dense()) <= 2

    def test_u_step_arithmetic(self):
        # W + U = [3, 0.75] projects to Z = [3, 0], so U + W - Z = [0, 0.75]
        params = two_layer_params([2.0, 0.5])
        st_ = dense_state(z={"a": [0.0, 0.0]}, u={"a": [1.0, 0.25]})
        st2 = admm_update(params, st_, SparsityConfig(keep={"a": 0.5}))
        assert np.array_equal(st2.z["a"].dense(), [3.0, 0.0])
        assert np.array_equal(st2.u["a"], [0.0, 0.75])
        assert st2.step == 1
        assert np.array_equal(st_.u["a"], [1.0, 0.25])    # the input state is kept

    def test_u_fixed_point_at_consensus(self):
        # W on the cardinality set and U = 0: Z = W, and U stays 0
        params = two_layer_params([5.0, 0.0])
        st_ = dense_state(z={"a": [5.0, 0.0]}, u={"a": np.zeros(2)})
        st2 = admm_update(params, st_, SparsityConfig(keep={"a": 0.5}))
        assert np.array_equal(st2.z["a"].dense(), [5.0, 0.0])
        assert np.all(st2.u["a"] == 0.0)

    def test_frozen_w_linear_dual_growth(self):
        # closed-form recurrence: with W frozen and a stable projection
        # support, U_k = k * (W - Z)
        params = two_layer_params([9.0, 1.0])
        cfg = SparsityConfig(keep={"a": 0.5})
        st_ = admm_init(params, cfg)
        z = st_.z["a"].dense()         # [9, 0]
        for k in range(1, 6):
            st_ = admm_update(params, st_, cfg)
            assert np.array_equal(st_.z["a"].dense(), z)
            assert np.allclose(st_.u["a"], k * (params["a"].weight - z))

    def test_residual_nonincreasing_quadratic_toy(self):
        # loss f(W) = 0.5||W - A||^2 has the closed-form augmented minimizer
        # W = (A + rho (Z - U)) / (1 + rho)
        # rho on the order of the loss curvature; much smaller values make
        # the projection support limit-cycle instead of locking in
        rng = np.random.default_rng(7)
        a = rng.normal(size=30)
        cfg = SparsityConfig(keep={"a": 0.2}, rho=1.0)
        params = two_layer_params(a.copy())
        state = admm_init(params, cfg)
        residuals = []
        for _ in range(50):
            w = (a + cfg.rho * (state.z["a"].dense() - state.u["a"])) / (1 + cfg.rho)
            params = two_layer_params(w)
            state = admm_update(params, state, cfg)
            residuals.append(float(np.linalg.norm(w - state.z["a"].dense())))
        tail = residuals[-10:]
        assert all(b <= a_ + 1e-12 for a_, b in zip(tail, tail[1:]))


def assert_sparse_z_is_dense_arithmetic(w, zd, u):
    """The local step's penalty residual against KeptEntries.dense(out=)
    (whole, and in ragged blocks of 3), with Z stored as KeptEntries.of(zd),
    against the dense formula (W - Z) + U, byte for byte."""
    z = KeptEntries.of(zd)
    assert z.dense().tobytes() == zd.tobytes()
    want = (w - zd + u).reshape(-1)
    zb = z.dense(out=np.full(w.size, np.nan))    # as in client_round's Z buffers
    for block in (w.size, 3):
        out = np.empty(w.size)
        for lo in range(0, w.size, block):
            hi = min(lo + block, w.size)
            np.subtract(w.reshape(-1)[lo:hi], zb[lo:hi], out=out[lo:hi])
            np.add(out[lo:hi], u.reshape(-1)[lo:hi], out=out[lo:hi])
        assert out.tobytes() == want.tobytes()


def nan_with_payload(bits):
    return np.array(0x7FF8_0000_0000_0000 | bits, dtype=np.uint64).view(np.float64)


def admm_update_case(name):
    """(params, state, cfg) for one admm_update case."""
    rng = np.random.default_rng(8)
    if name == "kept_negative_zero":
        # W + U is W, and the budget of 5 keeps the +0.0 at 0 and the -0.0 at 1
        w = [0.0, -0.0, 3.0, -0.0, 0.0, 1.0, -0.0, 2.0]
        return (two_layer_params(w), dense_state({"a": np.zeros(8)}, {"a": np.full(8, -0.0)}),
                SparsityConfig(keep={"a": 5 / 8}))
    if name.startswith("nan"):
        # NaNs in W, in U and in both, with payloads that tell them apart;
        # at 11 of 12 the NaNs at 2 and 7 are kept
        w, u = rng.normal(size=12), rng.normal(size=12)
        w[[2, 7]], u[[7, 9]] = nan_with_payload(1), nan_with_payload(2)
        return (two_layer_params(w), dense_state({"a": np.zeros(12)}, {"a": u}),
                SparsityConfig(keep={"a": int(name[3:]) / 12}))
    if name == "inf":
        # +inf in W, -inf in U, and both at 8 (a NaN in W + U); two layers
        w, u = rng.normal(size=10), rng.normal(size=10)
        w[[0, 8]], u[[5, 8]] = np.inf, -np.inf
        wb = np.array([-np.inf, 1.0, np.inf, -2.0])
        params = two_layer_params(w, wb)
        state = dense_state({"a": np.zeros(10), "b": np.zeros(4)},
                            {"a": u, "b": np.full(4, 0.5)})
        return params, state, SparsityConfig(keep={"a": 0.3, "b": 0.5})
    if name == "ties":
        # W and U on a coarse grid: the budget of 12 ends inside a run of ties
        w = np.round(rng.normal(size=(6, 5)), 1)
        u = np.round(rng.normal(scale=0.5, size=(6, 5)), 1) - w / 2
        mag = np.sort(np.abs(w + u).reshape(-1))
        assert mag[-12] == mag[-13]     # the 12th largest magnitude is also the 13th
        return (two_layer_params(w), dense_state({"a": np.zeros((6, 5))}, {"a": u}),
                SparsityConfig(keep={"a": 0.4}))
    assert name == "returning_from_a_looser_stage"
    # a client's state from a stage-0 round meets the last stage's budget
    cfg = SparsityConfig(keep={"a": 0.05}, rho=1.0)
    loose = stage_keep_config(cfg, 0)
    w0 = two_layer_params(rng.normal(size=(20, 30)))
    state = admm_update(w0, admm_init(w0, loose), loose)
    assert state.z["a"].index.size > 4 * cfg.budgets(w0)["a"]
    return two_layer_params(rng.normal(size=(20, 30))), state, cfg


class TestAdmmUpdate:
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")   # inf - inf
    @pytest.mark.parametrize("name", ["kept_negative_zero", "nan3", "nan11", "inf",
                                      "ties", "returning_from_a_looser_stage"])
    def test_bytes_of_the_two_step_reference(self, name):
        params, state, cfg = admm_update_case(name)
        before = {lid: u.tobytes() for lid, u in state.u.items()}
        got, (z, u) = admm_update(params, state, cfg), ref_admm_update(params, state.u, cfg.keep)
        assert got.step == state.step + 1
        assert list(got.z) == list(got.u) == list(state.z)
        for lid in state.z:
            assert same_bytes(got.z[lid].dense(), z[lid])
            assert same_bytes(got.u[lid], u[lid])
            assert state.u[lid].tobytes() == before[lid]

    def test_kept_negative_zero_is_stored(self):
        params, state, cfg = admm_update_case("kept_negative_zero")
        z = admm_update(params, state, cfg).z["a"]
        assert z.index.tolist() == [1, 2, 5, 7]
        assert np.signbit(z.value[0])


class TestSparseZ:
    def test_stores_exactly_the_entries_other_than_positive_zero(self):
        t = np.array([[0.0, -0.0, 2.0], [np.nan, 0.0, -1.0]])
        z = KeptEntries.of(t)
        assert z.index.tolist() == [1, 2, 3, 5] and z.shape == (2, 3)
        assert z.dense().tobytes() == t.tobytes()

    def test_kept_negative_zero(self):
        # a budget above the non-zero count keeps the lowest-index zeros,
        # here +0.0 at 0 and -0.0 at 1; with W = U = -0.0 there the dense
        # formula gives +0.0 where W + U would give -0.0
        w = np.array([0.0, -0.0, 3.0, -0.0, 0.0, 1.0, -0.0, 2.0])
        zd = euclidean_project(w, 5)
        assert 1 in KeptEntries.of(zd).index.tolist()
        assert_sparse_z_is_dense_arithmetic(w, zd, np.full(8, -0.0))

    @pytest.mark.parametrize("n_keep", [3, 11])
    def test_nan_in_w_plus_u(self, n_keep):
        # Z from the Z step on a W + U with NaNs; at 11 of 12 a NaN is kept
        rng = np.random.default_rng(4)
        w, u = rng.normal(size=12), rng.normal(size=12)
        w[[2, 7]], u[[7, 9]] = np.nan, np.nan
        cfg = SparsityConfig(keep={"a": n_keep / 12})
        z = admm_update(two_layer_params(w), dense_state({"a": np.zeros(12)}, {"a": u}),
                        cfg).z["a"]
        assert z.index.size <= n_keep
        assert_sparse_z_is_dense_arithmetic(w, z.dense(), u)

    def test_returning_client_with_a_looser_stage_z(self):
        # Z projected at stage 0's budget meets stage 3's weights
        rng = np.random.default_rng(5)
        cfg = SparsityConfig(keep={"a": 0.05}, rho=1.0)
        loose = stage_keep_config(cfg, 0).budgets(two_layer_params(np.zeros((20, 30))))["a"]
        tight = cfg.budgets(two_layer_params(np.zeros((20, 30))))["a"]
        assert loose > 4 * tight
        zd = euclidean_project(rng.normal(size=(20, 30)), loose)
        w = euclidean_project(rng.normal(size=(20, 30)), tight)
        assert_sparse_z_is_dense_arithmetic(w, zd, rng.normal(0, 0.1, size=(20, 30)))


class TestHardPruneAndMask:
    def test_exact_counts_and_idempotence(self):
        rng = np.random.default_rng(1)
        params = two_layer_params(rng.normal(size=20), rng.normal(size=10))
        cfg = SparsityConfig(keep={"a": 0.25, "b": 0.5})
        pruned, mask = final_hard_prune(params, cfg)
        assert np.count_nonzero(pruned["a"].weight) == 5
        assert np.count_nonzero(pruned["b"].weight) == 5
        assert sum(int(m.sum()) for m in mask.layers.values()) == 10
        again, _ = final_hard_prune(pruned, cfg)
        assert np.array_equal(again["a"].weight, pruned["a"].weight)

    def test_magnitude_mask_equals_projection(self):
        rng = np.random.default_rng(2)
        params = two_layer_params(rng.normal(size=(4, 5)))
        cfg = SparsityConfig(keep={"a": 0.3})
        masked, _ = final_hard_prune(params, cfg)
        assert np.array_equal(masked["a"].weight,
                              euclidean_project(params["a"].weight, 6))

    def test_keep_all_degenerates_to_identity(self):
        rng = np.random.default_rng(2)
        params = two_layer_params(rng.normal(size=9))
        cfg = SparsityConfig(keep={"a": 1.0})
        out, _ = final_hard_prune(params, cfg)
        assert np.array_equal(out["a"].weight, params["a"].weight)

    def test_different_weights_different_masks(self):
        cfg = SparsityConfig(keep={"a": 0.5})
        m1, _ = final_hard_prune(two_layer_params([5.0, 1.0]), cfg)
        m2, _ = final_hard_prune(two_layer_params([1.0, 5.0]), cfg)
        assert not np.array_equal(m1["a"].weight != 0, m2["a"].weight != 0)


class TestCompressionRate:
    def test_fully_dense_is_one(self):
        params = two_layer_params(np.ones(10))
        assert compression_rate(params) == 1.0

    def test_lenet_cr_targets(self):
        arch = nn.lenet5()
        params = nn.init_model(arch, 0)
        for keep, target, frac in ((LENET_KEEP_CR10, 9.99, 0.1001),
                                   (LENET_KEEP_CR87, 87.0, 0.0115)):
            cfg = SparsityConfig(keep=keep)
            pruned, mask = final_hard_prune(params, cfg)
            cr = compression_rate(pruned)
            assert cr == pytest.approx(target, abs=0.06)
            assert pruning.overall_keep_fraction(params, cfg) == \
                pytest.approx(frac, abs=2e-4)
            kept = sum(int(m.sum()) for m in mask.layers.values())
            assert kept == pruned.nonzero_weight_count()

    def test_configs_validate(self):
        with pytest.raises(ValueError):
            SparsityConfig(keep={})
        with pytest.raises(ValueError):
            SparsityConfig(keep={"a": 0.5}, rho=0.0)
        with pytest.raises(ValueError):
            SparsityConfig(keep={"a": 1.5})

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), -float("inf"), -1e-3])
    def test_rho_must_be_finite_and_positive(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and > 0"):
            SparsityConfig(keep={"a": 0.5}, rho=rho)
