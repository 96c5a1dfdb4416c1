import math

import numpy as np
import pytest

from fedprune import nn
from fedprune.datasets import synthetic_blobs, synthetic_images


def finite_diff_grad(arch, params, batch, h=1e-5):
    """Central finite differences over every parameter; independent oracle."""
    out = []
    for e in params.entries:
        gw = np.zeros_like(e.weight)
        gb = np.zeros_like(e.bias)
        for arr, g in ((e.weight, gw), (e.bias, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + h
                lp, _ = nn.forward_loss(arch, params, batch)
                arr[ix] = orig - h
                lm, _ = nn.forward_loss(arch, params, batch)
                arr[ix] = orig
                g[ix] = (lp - lm) / (2 * h)
        out.append((gw, gb))
    return out


def max_rel_err(analytic, numeric):
    worst = 0.0
    for e, (gw, gb) in zip(analytic.entries, numeric):
        for a, b in ((e.weight, gw), (e.bias, gb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestInit:
    def test_deterministic(self):
        arch = nn.mlp((784, 300, 100, 10))
        a = nn.init_model(arch, seed=1)
        b = nn.init_model(arch, seed=1)
        for ea, eb in zip(a.entries, b.entries):
            assert np.array_equal(ea.weight, eb.weight)
            assert np.array_equal(ea.bias, eb.bias)

    def test_lenet5_param_count(self):
        params = nn.init_model(nn.lenet5(), seed=5)
        assert params.param_count() == 431080        # the "430K" model
        # layer-by-layer analytic sum
        expected = (20 * 1 * 25 + 20) + (50 * 20 * 25 + 50) + \
                   (800 * 500 + 500) + (500 * 10 + 10)
        assert params.param_count() == expected

    def test_biases_zero(self):
        arch = nn.mlp((2, 2))
        params = nn.init_model(arch, seed=7)
        assert np.all(params.entries[0].bias == 0.0)

    def test_invalid_arch_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.ModelArch((nn.Dense("a", 4, 3), nn.Dense("b", 5, 2)), (4,), 2)
        with pytest.raises(nn.ShapeError):
            nn.ModelArch((nn.Dense("a", 4, 3),), (4,), 2)  # wrong class count
        with pytest.raises(nn.ShapeError):
            nn.ModelArch((nn.Dense("a", 4, 2), nn.Dense("a", 2, 2)), (4,), 2)

    @pytest.mark.parametrize("layers, input_shape", [
        ((nn.Flatten(), nn.Dense("a", 4, 2)), (4,)),
        ((nn.Dense("a", 4, 3), nn.Flatten(), nn.Dense("b", 3, 2)), (4,)),
        ((nn.Conv2d("c", 1, 2, 3), nn.Flatten(), nn.Flatten(), nn.Dense("a", 8, 2)),
         (1, 4, 4)),
        ((nn.Flatten(), nn.Dense("a", 6, 2)), (2, 3)),
    ], ids=["flat_input", "after_dense", "second_flatten", "2d_input"])
    def test_flatten_needs_an_image(self, layers, input_shape):
        # the passes flatten only (C, H, W) features, in _conv_stack
        with pytest.raises(nn.ShapeError, match="flatten expects"):
            nn.ModelArch(layers, input_shape, 2)


class TestForwardLoss:
    def test_uniform_logits_ln10(self):
        # zero weights and biases -> all logits equal -> loss = ln(10)
        arch = nn.mlp((5, 10))
        params = nn.init_model(arch, 0).map(lambda lid, w, b: (w * 0, b * 0))
        batch = nn.Batch(np.ones((4, 5)), np.array([0, 3, 7, 9]))
        loss, logits = nn.forward_loss(arch, params, batch)
        assert loss == pytest.approx(math.log(10), rel=1e-12)
        assert np.all(logits == 0.0)

    def test_confident_correct_near_zero_loss(self):
        arch = nn.mlp((2, 3))
        params = nn.init_model(arch, 0).map(
            lambda lid, w, b: (w * 0, np.array([50.0, 0.0, 0.0])))
        loss, _ = nn.forward_loss(arch, params, nn.Batch(np.ones((1, 2)), np.array([0])))
        assert loss < 1e-8

    def test_hand_computed_222(self):
        # independent scalar-arithmetic oracle for a fixed 2-2-2 net
        arch = nn.ModelArch((nn.Dense("h", 2, 2), nn.ReLU(), nn.Dense("o", 2, 2)), (2,), 2)
        w1 = np.array([[0.5, -0.25], [1.0, 0.75]])
        b1 = np.array([0.1, -0.2])
        w2 = np.array([[2.0, -1.0], [0.5, 1.5]])
        b2 = np.array([0.0, 0.3])
        params = nn.ParameterSet((nn.LayerParams("h", w1, b1), nn.LayerParams("o", w2, b2)))
        x = [0.4, -0.6]
        h_pre = [x[0] * w1[0, 0] + x[1] * w1[1, 0] + b1[0],
                 x[0] * w1[0, 1] + x[1] * w1[1, 1] + b1[1]]
        h = [max(0.0, v) for v in h_pre]
        z = [h[0] * w2[0, 0] + h[1] * w2[1, 0] + b2[0],
             h[0] * w2[0, 1] + h[1] * w2[1, 1] + b2[1]]
        expected = -(z[1] - math.log(math.exp(z[0]) + math.exp(z[1])))
        loss, _ = nn.forward_loss(arch, params, nn.Batch(np.array([x]), np.array([1])))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_raises(self):
        arch = nn.mlp((3, 2))
        params = nn.init_model(nn.mlp((4, 2)), 0)
        with pytest.raises(nn.ShapeError):
            nn.forward_loss(arch, params, nn.Batch(np.ones((1, 3)), np.array([0])))

    @pytest.mark.parametrize("shape", [(1, 784), (1, 1, 28, 27), (1, 2, 28, 28)])
    def test_input_shape_mismatch_raises(self, shape):
        arch = nn.lenet5()
        params = nn.init_model(arch, 0)
        batch = nn.Batch(np.ones(shape), np.array([0]))
        for call in (lambda: nn.forward_loss(arch, params, batch),
                     lambda: nn.backward(arch, params, batch),
                     lambda: nn.predict(arch, params, batch.inputs)):
            with pytest.raises(nn.ShapeError, match="per-example shape"):
                call()

    @pytest.mark.parametrize("weight_shape", [
        (3, 2 * 3 * 3),     # flattened (out_ch, in_ch*k*k)
        (3, 1, 3, 3),       # wrong in_ch
        (3, 2, 2, 2),       # wrong kernel
    ])
    def test_conv_weight_shape_mismatch_raises(self, weight_shape):
        arch = nn.ModelArch((nn.Conv2d("c", 2, 3, 3), nn.Flatten(),
                             nn.Dense("f", 3 * 4 * 4, 2)), (2, 6, 6), 2)
        params = nn.init_model(arch, 0)
        bad = params.map(lambda lid, w, b: (np.zeros(weight_shape) if lid == "c" else w, b))
        batch = nn.Batch(np.ones((1, 2, 6, 6)), np.array([0]))
        for call in (lambda: nn.forward_loss(arch, bad, batch),
                     lambda: nn.backward(arch, bad, batch),
                     lambda: nn.predict(arch, bad, batch.inputs)):
            with pytest.raises(nn.ShapeError, match="'c'"):
                call()


class TestBackward:
    @pytest.mark.parametrize("arch,input_shape", [
        (nn.mlp((6, 5, 3)), (6,)),
        (nn.ModelArch((nn.Conv2d("c", 2, 3, 3), nn.ReLU(), nn.MaxPool(2),
                       nn.Flatten(), nn.Dense("f", 12, 3)), (2, 6, 6), 3),
         (2, 6, 6)),
        (nn.ModelArch((nn.Conv2d("c", 1, 2, 2, stride=2), nn.Flatten(),
                       nn.Dense("f", 8, 2)), (1, 5, 5), 2),
         (1, 5, 5)),
        # a conv after a pool: its input gradient runs through _col2im and
        # the pool's routing into the first conv
        (nn.ModelArch((nn.Conv2d("c1", 2, 3, 3), nn.MaxPool(2),
                       nn.Conv2d("c2", 3, 4, 3, stride=2), nn.Flatten(),
                       nn.Dense("f", 4 * 2 * 2, 3)), (2, 12, 12), 3),
         (2, 12, 12)),
        (nn.ModelArch((nn.Conv2d("c1", 2, 3, 3), nn.ReLU(), nn.MaxPool(2),
                       nn.Conv2d("c2", 3, 4, 3, stride=2), nn.ReLU(), nn.Flatten(),
                       nn.Dense("f", 4 * 2 * 2, 3)), (2, 12, 12), 3),
         (2, 12, 12)),
    ])
    def test_matches_finite_differences(self, arch, input_shape, rng):
        params = nn.init_model(arch, seed=3)
        x = rng.normal(size=(4, *input_shape))
        y = rng.integers(0, arch.num_classes, size=4)
        batch = nn.Batch(x, y)
        analytic = nn.backward(arch, params, batch)
        numeric = finite_diff_grad(arch, params, batch)
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_equal_features_give_equal_weight_grad_rows(self, rng):
        # single dense layer, every input feature identical -> x^T @ d has
        # identical rows
        arch = nn.mlp((4, 3))
        params = nn.init_model(arch, 0).map(lambda lid, w, b: (w * 0, b * 0))
        x = np.full((2, 4), 0.7)
        g = nn.backward(arch, params, nn.Batch(x, np.array([0, 2])))
        gw = g.entries[0].weight
        assert np.allclose(gw, gw[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lenet5_fp32_gradients_bound_by_fp64(self, seed):
        # the same fp32-representable weights and images, one pass at each
        # precision: every tensor's fp32 gradient is within 1e-5 of the fp64
        # one, relative, in L2 norm and in its largest entry error against
        # its largest entry.  Observed at most 1.1e-6 (conv1's bias) and
        # about 3e-7 elsewhere: fp32's rounding unit is 6e-8, and sums of up
        # to 800 products grow that by about sqrt(800).  A lost term, a
        # wrong pool route or a half-precision step is off by 1e-3 or more.
        arch = nn.lenet5()
        p32 = nn.init_model(arch, seed).map(
            lambda lid, w, b: (w.astype(np.float32), b.astype(np.float32)))
        p64 = p32.map(lambda lid, w, b: (w.astype(np.float64), b.astype(np.float64)))
        ds = synthetic_images(num_train=10, num_test=1, channels=1, side=28, seed=seed)
        batch = nn.Batch(ds.train_x.astype(np.float32), ds.train_y)
        g32, g64 = nn.backward(arch, p32, batch), nn.backward(arch, p64, batch)
        for e32, e64 in zip(g32.entries, g64.entries):
            for t32, t64 in ((e32.weight, e64.weight), (e32.bias, e64.bias)):
                assert t32.dtype == np.float32 and t64.dtype == np.float64
                err = t32 - t64
                assert np.linalg.norm(err) <= 1e-5 * np.linalg.norm(t64), e32.layer_id
                assert np.abs(err).max() <= 1e-5 * np.abs(t64).max(), e32.layer_id

    def test_final_bias_grad_is_mean_residual(self, rng):
        arch = nn.mlp((5, 4, 3))
        params = nn.init_model(arch, seed=9)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        batch = nn.Batch(x, y)
        _, logits = nn.forward_loss(arch, params, batch)
        z = logits - logits.max(axis=1, keepdims=True)
        sm = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(3)[y]
        expected = (sm - onehot).mean(axis=0)
        g = nn.backward(arch, params, batch)
        assert np.allclose(g.entries[-1].bias, expected, atol=1e-12)


class TestEvaluate:
    def test_perfect_predictor(self):
        arch = nn.mlp((2, 3))
        # bias strongly favors class 1, all labels are 1
        params = nn.init_model(arch, 0).map(
            lambda lid, w, b: (w * 0, np.array([0.0, 10.0, 0.0])))
        acc = nn.evaluate(arch, params, np.zeros((20, 2)), np.ones(20, dtype=int))
        assert acc == 1.0

    def test_random_model_near_chance(self):
        arch = nn.mlp((8, 10))
        params = nn.init_model(arch, seed=11)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3000, 8))
        y = rng.integers(0, 10, size=3000)
        assert abs(nn.evaluate(arch, params, x, y) - 0.10) <= 0.03

    def test_empty_dataset_rejected(self):
        arch = nn.mlp((2, 2))
        params = nn.init_model(arch, 0)
        with pytest.raises(ValueError):
            nn.evaluate(arch, params, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestTrainingBehavior:
    def test_loss_monotone_small_lr_convex(self):
        # softmax regression (last layer only) is convex
        arch = nn.mlp((4, 3))
        params = nn.init_model(arch, 2)
        ds = synthetic_blobs(60, 10, 4, 3, seed=5)
        batch = nn.Batch(ds.train_x, ds.train_y)
        losses = []
        for _ in range(25):
            losses.append(nn.forward_loss(arch, params, batch)[0])
            g = nn.backward(arch, params, batch)
            params = params.map(lambda lid, w, b: (w - 0.01 * g[lid].weight,
                                                   b - 0.01 * g[lid].bias))
        losses.append(nn.forward_loss(arch, params, batch)[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_values_stay_finite(self):
        arch = nn.mlp((4, 6, 3))
        params = nn.init_model(arch, 2)
        ds = synthetic_blobs(50, 10, 4, 3, seed=5)
        for _ in range(10):
            g = nn.backward(arch, params, nn.Batch(ds.train_x, ds.train_y))
            params = params.map(lambda lid, w, b: (w - 0.1 * g[lid].weight,
                                                   b - 0.1 * g[lid].bias))
        assert params.allfinite()
