"""From-scratch differentiable models (MLP and LeNet-style convnets).

Everything runs in float64 numpy on the CPU. The API is purely functional:
parameter sets go in, new parameter sets / gradients come out, nothing is
mutated, so many clients can train in parallel worker contexts safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Layer shapes do not compose, or inputs do not match the architecture."""


# ---------------------------------------------------------------------------
# Architecture description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    name: str
    n_in: int
    n_out: int


@dataclass(frozen=True)
class Conv2d:
    name: str
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class MaxPool:
    k: int = 2


@dataclass(frozen=True)
class Flatten:
    pass


Layer = Dense | Conv2d | ReLU | MaxPool | Flatten


@dataclass(frozen=True)
class ModelArch:
    """Layer stack ending in softmax cross-entropy over ``num_classes``."""

    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]  # per-example shape, e.g. (784,) or (1, 28, 28)
    num_classes: int

    def __post_init__(self):
        names = [l.name for l in self.layers if isinstance(l, (Dense, Conv2d))]
        if len(names) != len(set(names)):
            raise ShapeError(f"duplicate layer names: {names}")
        out = self.output_shape()  # raises ShapeError if shapes do not compose
        if out != (self.num_classes,):
            raise ShapeError(f"final layer produces {out}, expected ({self.num_classes},)")

    def output_shape(self) -> tuple[int, ...]:
        shape = tuple(self.input_shape)
        for layer in self.layers:
            shape = _infer_shape(layer, shape)
        return shape

    def param_layers(self) -> list[Dense | Conv2d]:
        return [l for l in self.layers if isinstance(l, (Dense, Conv2d))]


def _infer_shape(layer: Layer, shape: tuple[int, ...]) -> tuple[int, ...]:
    if isinstance(layer, Dense):
        if shape != (layer.n_in,):
            raise ShapeError(f"dense '{layer.name}' expects ({layer.n_in},), got {shape}")
        return (layer.n_out,)
    if isinstance(layer, Conv2d):
        if len(shape) != 3 or shape[0] != layer.in_ch:
            raise ShapeError(f"conv '{layer.name}' expects ({layer.in_ch}, H, W), got {shape}")
        _, h, w = shape
        ho = (h - layer.kernel) // layer.stride + 1
        wo = (w - layer.kernel) // layer.stride + 1
        if ho < 1 or wo < 1:
            raise ShapeError(f"conv '{layer.name}' kernel {layer.kernel} too large for {shape}")
        return (layer.out_ch, ho, wo)
    if isinstance(layer, MaxPool):
        if len(shape) != 3 or shape[1] % layer.k or shape[2] % layer.k:
            raise ShapeError(f"maxpool k={layer.k} does not divide {shape}")
        return (shape[0], shape[1] // layer.k, shape[2] // layer.k)
    if isinstance(layer, Flatten):
        return (int(np.prod(shape)),)
    if isinstance(layer, ReLU):
        return shape
    raise ShapeError(f"unknown layer {layer!r}")


# ---------------------------------------------------------------------------
# Stock architectures
# ---------------------------------------------------------------------------

def mlp(dims: Sequence[int] = (784, 300, 100, 10)) -> ModelArch:
    """Fully-connected ReLU network; ``dims`` runs input..classes."""
    layers: list[Layer] = []
    for i in range(len(dims) - 1):
        layers.append(Dense(f"fc{i + 1}", dims[i], dims[i + 1]))
        if i < len(dims) - 2:
            layers.append(ReLU())
    return ModelArch(tuple(layers), (dims[0],), dims[-1])


def lenet5() -> ModelArch:
    """LeNet-5 (Caffe variant) for 28x28 grayscale inputs, 431,080 parameters.

    conv(1->20,5x5) pool2 conv(20->50,5x5) pool2 fc(800->500) relu fc(500->10).
    Weight/bias accounting: 500+20 + 25000+50 + 400000+500 + 5000+10 = 431,080,
    i.e. the usual "430K" figure.  The 6/16/120/84 variant only has ~61K
    parameters and cannot reach that count, so the wider variant is used.
    """
    return ModelArch(
        (
            Conv2d("conv1", 1, 20, 5),
            MaxPool(2),
            Conv2d("conv2", 20, 50, 5),
            MaxPool(2),
            Flatten(),
            Dense("fc1", 800, 500),
            ReLU(),
            Dense("fc2", 500, 10),
        ),
        (1, 28, 28),
        10,
    )


def small_convnet(in_ch: int = 3, side: int = 32, num_classes: int = 10) -> ModelArch:
    """Reduced convnet for CIFAR-shaped inputs; desk-scale stand-in for the
    large mobile architectures that are out of scope."""
    s1 = (side - 4) // 2          # after conv 5x5 + pool2
    s2 = (s1 - 4) // 2            # after second conv 5x5 + pool2
    return ModelArch(
        (
            Conv2d("conv1", in_ch, 8, 5),
            ReLU(),
            MaxPool(2),
            Conv2d("conv2", 8, 16, 5),
            ReLU(),
            MaxPool(2),
            Flatten(),
            Dense("fc1", 16 * s2 * s2, 64),
            ReLU(),
            Dense("fc2", 64, num_classes),
        ),
        (in_ch, side, side),
        num_classes,
    )


# ---------------------------------------------------------------------------
# Parameters / gradients / batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerParams:
    layer_id: str
    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class ParameterSet:
    """Ordered per-layer (weight, bias) tensors; also used for gradients."""

    entries: tuple[LayerParams, ...]

    def __getitem__(self, layer_id: str) -> LayerParams:
        for e in self.entries:
            if e.layer_id == layer_id:
                return e
        raise KeyError(layer_id)

    def layer_ids(self) -> list[str]:
        return [e.layer_id for e in self.entries]

    def param_count(self) -> int:
        return sum(e.weight.size + e.bias.size for e in self.entries)

    def weight_count(self) -> int:
        return sum(e.weight.size for e in self.entries)

    def nonzero_weight_count(self) -> int:
        return sum(int(np.count_nonzero(e.weight)) for e in self.entries)

    def map(self, fn) -> "ParameterSet":
        """New set with fn(layer_id, weight, bias) -> (weight', bias')."""
        out = []
        for e in self.entries:
            w, b = fn(e.layer_id, e.weight, e.bias)
            out.append(LayerParams(e.layer_id, w, b))
        return ParameterSet(tuple(out))

    def allfinite(self) -> bool:
        return all(np.isfinite(e.weight).all() and np.isfinite(e.bias).all()
                   for e in self.entries)


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray   # (B, *input_shape)
    labels: np.ndarray   # (B,) int class indices

    def __post_init__(self):
        if len(self.labels) != len(self.inputs) or len(self.labels) < 1:
            raise ShapeError("batch inputs/labels length mismatch or empty")


def check_congruent(a: ParameterSet, b: ParameterSet) -> None:
    if a.layer_ids() != b.layer_ids():
        raise ShapeError(f"layer ids differ: {a.layer_ids()} vs {b.layer_ids()}")
    for ea, eb in zip(a.entries, b.entries):
        if ea.weight.shape != eb.weight.shape or ea.bias.shape != eb.bias.shape:
            raise ShapeError(f"shape mismatch in layer {ea.layer_id}")


def init_model(arch: ModelArch, seed: int) -> ParameterSet:
    """Deterministic scaled-uniform fan-in init; biases zero."""
    rng = np.random.default_rng(seed)
    entries = []
    for layer in arch.param_layers():
        if isinstance(layer, Dense):
            fan_in = layer.n_in
            shape = (layer.n_in, layer.n_out)
            bias_shape = (layer.n_out,)
        else:
            fan_in = layer.in_ch * layer.kernel * layer.kernel
            shape = (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel)
            bias_shape = (layer.out_ch,)
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=shape)
        entries.append(LayerParams(layer.name, w, np.zeros(bias_shape)))
    return ParameterSet(tuple(entries))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _im2col(x: np.ndarray, k: int, stride: int):
    # x: (B, C, H, W) -> cols: (B*Ho*Wo, C*k*k)
    b, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]                    # (B, C, Ho, Wo, k, k)
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * k * k)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, ho: int, wo: int):
    b, c, h, w = x_shape
    dx = np.zeros(x_shape)
    dcols = dcols.reshape(b, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx


def _forward(arch: ModelArch, params: ParameterSet, x: np.ndarray):
    """Run the stack, returning logits and per-layer caches for backprop."""
    caches = []
    pidx = 0
    pl = params.entries
    for layer in arch.layers:
        if isinstance(layer, Dense):
            e = pl[pidx]; pidx += 1
            if e.weight.shape != (layer.n_in, layer.n_out):
                raise ShapeError(f"params for '{layer.name}' have shape "
                                 f"{e.weight.shape}, arch wants {(layer.n_in, layer.n_out)}")
            caches.append(("dense", x, e))
            x = x @ e.weight + e.bias
        elif isinstance(layer, Conv2d):
            e = pl[pidx]; pidx += 1
            cols, ho, wo = _im2col(x, layer.kernel, layer.stride)
            wmat = e.weight.reshape(layer.out_ch, -1).T      # (C*k*k, out_ch)
            out = cols @ wmat + e.bias
            caches.append(("conv", x.shape, cols, e, layer, ho, wo))
            x = out.reshape(x.shape[0], ho, wo, layer.out_ch).transpose(0, 3, 1, 2)
        elif isinstance(layer, ReLU):
            mask = x > 0
            caches.append(("relu", mask))
            x = x * mask
        elif isinstance(layer, MaxPool):
            k = layer.k
            b, c, h, w = x.shape
            xr = x.reshape(b, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
            xr = xr.reshape(b, c, h // k, w // k, k * k)
            idx = np.argmax(xr, axis=-1)                    # first max wins ties
            caches.append(("pool", x.shape, idx, k))
            x = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        elif isinstance(layer, Flatten):
            caches.append(("flatten", x.shape))
            x = x.reshape(x.shape[0], -1)
    return x, caches


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_loss(arch: ModelArch, params: ParameterSet, batch: Batch):
    """Mean softmax cross-entropy over the batch; returns (loss, logits)."""
    logits, _ = _forward(arch, params, np.asarray(batch.inputs, dtype=np.float64))
    b = len(batch.labels)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(b), batch.labels].mean()
    return float(loss), logits


def backward(arch: ModelArch, params: ParameterSet, batch: Batch) -> ParameterSet:
    """Analytic gradient of forward_loss w.r.t. every parameter."""
    x = np.asarray(batch.inputs, dtype=np.float64)
    logits, caches = _forward(arch, params, x)
    b = len(batch.labels)
    dout = _softmax(logits)
    dout[np.arange(b), batch.labels] -= 1.0
    dout /= b

    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for layer, cache in zip(reversed(arch.layers), reversed(caches)):
        kind = cache[0]
        if kind == "dense":
            _, xin, e = cache
            grads[e.layer_id] = (xin.T @ dout, dout.sum(axis=0))
            dout = dout @ e.weight.T
        elif kind == "conv":
            _, x_shape, cols, e, lyr, ho, wo = cache
            dmat = dout.transpose(0, 2, 3, 1).reshape(-1, lyr.out_ch)
            dw = (cols.T @ dmat).T.reshape(e.weight.shape)
            db = dmat.sum(axis=0)
            grads[e.layer_id] = (dw, db)
            dcols = dmat @ e.weight.reshape(lyr.out_ch, -1)
            dout = _col2im(dcols, x_shape, lyr.kernel, lyr.stride, ho, wo)
        elif kind == "relu":
            dout = dout * cache[1]
        elif kind == "pool":
            _, x_shape, idx, k = cache
            bb, c, ho, wo = idx.shape[0], idx.shape[1], idx.shape[2], idx.shape[3]
            dxr = np.zeros((bb, c, ho, wo, k * k))
            np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
            dout = dxr.reshape(bb, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5) \
                      .reshape(x_shape)
        elif kind == "flatten":
            dout = dout.reshape(cache[1])

    entries = tuple(LayerParams(e.layer_id, *grads[e.layer_id]) for e in params.entries)
    return ParameterSet(entries)


def predict(arch: ModelArch, params: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    logits, _ = _forward(arch, params, np.asarray(inputs, dtype=np.float64))
    return np.argmax(logits, axis=1)


def evaluate(arch: ModelArch, params: ParameterSet,
             inputs: np.ndarray, labels: np.ndarray, batch_size: int = 512) -> float:
    """Fraction of correct argmax predictions."""
    n = len(labels)
    if n == 0:
        raise ValueError("empty evaluation dataset")
    correct = 0
    for i in range(0, n, batch_size):
        pred = predict(arch, params, inputs[i:i + batch_size])
        correct += int((pred == labels[i:i + batch_size]).sum())
    return correct / n
