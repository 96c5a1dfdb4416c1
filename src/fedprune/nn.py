"""From-scratch differentiable models (MLP and LeNet-style convnets).

Everything runs in numpy on the CPU, in the dtype of the parameters a call
is given (``_start``): the inputs are cast to it and every array a pass
allocates has it, so float32 parameters give a float32 pass and float64 ones
a float64 pass.  The API is purely functional: parameter sets go in, new
parameter sets / gradients come out, and nothing the caller passes is
mutated, so any number of threads may call it at once.

Each process has one helper thread, started on first use, that shares the
work of a single call.  The layers up to the Flatten (the conv/pool stack)
run on blocks of examples, and the blocks are part of what a pass computes:
each conv GEMM gives the bytes of its blocks, not of one GEMM over the
batch.  A training pass (``backward``) runs the stack on the two halves of
its batch of n, examples ``[0, n // 2)`` and ``[n // 2, n)``, writing
straight into the full-batch arrays that the backward half reads.  Every
other pass (``_logits``, ``forward_loss``) runs it on tiles of ``_TILE`` = 10
examples, the last one possibly short, each part's tiles through one
buffer set.  The first half, or the first half of the tiles, runs on the
helper and the rest on the caller (``_conv_stack``); a pass whose first
half is empty (a batch of one, or at most one tile) runs on the caller
alone.  In ``backward`` the helper also runs the weight-gradient GEMM of
every parameterized layer above the first while the calling thread computes
that layer's input gradient, and then the caller's per-layer ``then`` hook.

A GEMM's bytes depend on the shape and values of its block, not on where
the block sits in memory: so it was for every conv block of the tested
models, at fp32 and fp64, under OpenBLAS's default, Haswell and Sandybridge
kernels.  So a block gives the same bytes whether it reads and writes rows
of the full-batch arrays or a tile's buffers.  Everything else the helper
runs is the BLAS call or numpy operation a one-thread pass would make, on
the same operands, writing into arrays the caller allocated, and the caller
waits for it before returning, so logits and gradients are the same bytes
on either thread.  Only private helpers and numpy run there, plus the
caller's ``then`` hook, and fedprune's one hook (``federation.client_round``'s
step) calls numpy only.  So no public fedprune function starts on the
helper, and a tracer that wraps the public names sees every call on the
calling thread.

Inputs and conv weights are channels-first, ``(B, C, H, W)`` and
``(out_ch, in_ch, k, k)``.  Inside the passes, activations are channels-last,
``(B, H, W, C)``: a conv is im2col + one GEMM whose output reshapes to the
next activation without a transpose, max pooling takes the max of the k*k
strided views, and ``Flatten`` puts features back in (c, h, w) order.
``backward`` computes no gradient for the first parameterized layer's input,
which nothing uses.  The dense layers, and every GEMM of the backward half,
run on the whole batch or chunk.  Every GEMM sees the operands of the
channels-first formulation on the same blocks, so logits and gradients are
the same bytes.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .params import LayerParams, ParameterSet


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
        if len(shape) != 3:
            raise ShapeError(f"flatten expects (C, H, W), got {shape}")
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
# Batches and initial parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray   # (B, *input_shape)
    labels: np.ndarray   # (B,) int class indices

    def __post_init__(self):
        if len(self.labels) != len(self.inputs) or len(self.labels) < 1:
            raise ShapeError("batch inputs/labels length mismatch or empty")


def _param_shapes(layer: Dense | Conv2d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(weight shape, bias shape) of a parameterized layer."""
    if isinstance(layer, Dense):
        return (layer.n_in, layer.n_out), (layer.n_out,)
    return (layer.out_ch, layer.in_ch, layer.kernel, layer.kernel), (layer.out_ch,)


def init_model(arch: ModelArch, seed: int) -> ParameterSet:
    """Deterministic scaled-uniform fan-in init; biases zero."""
    rng = np.random.default_rng(seed)
    entries = []
    for layer in arch.param_layers():
        shape, bias_shape = _param_shapes(layer)
        fan_in = shape[0] if isinstance(layer, Dense) else int(np.prod(shape[1:]))
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=shape)
        entries.append(LayerParams(layer.name, w, np.zeros(bias_shape)))
    return ParameterSet(tuple(entries))


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

# Examples per conv GEMM block outside ``backward``: part of what such a pass
# computes.  It bounds the im2col matrices: LeNet-5's conv2 needs 2.5 MB for
# 10 examples at fp64, 77 MB for 300.  Splitting a dense GEMM's rows changes
# the last bit, so dense layers run on the whole chunk.  On 300 LeNet-5
# examples (one BLAS thread, 2-core host) tiles of 10 took 61/78 ms
# min/median against 70/86 ms for tiles of 32.
_TILE = 10

# (pid, executor) of this process's helper thread.  A child forked after the
# helper started inherits the tuple but not the thread, so the pid check
# gives it a helper of its own instead of a queue nobody drains.
_helper: tuple[int, ThreadPoolExecutor] | None = None
_helper_lock = threading.Lock()
_thread = threading.local()         # .on_helper is set on the helper thread


def _offload(on_helper: bool, fn, *args, **kwargs) -> Callable[[], object]:
    """Start fn(*args, **kwargs) on the helper thread when ``on_helper``, or
    run it now; returns a call that waits for fn and returns its result or
    raises its exception.  On the helper thread itself fn runs now, so the
    helper never waits on its own queue."""
    global _helper
    if not on_helper or getattr(_thread, "on_helper", False):
        out = fn(*args, **kwargs)
        return lambda: out
    pid = os.getpid()
    if _helper is None or _helper[0] != pid:
        with _helper_lock:
            if _helper is None or _helper[0] != pid:
                _helper = (pid, ThreadPoolExecutor(
                    1, "fedprune-nn", lambda: setattr(_thread, "on_helper", True)))
    # fn's arguments are dropped on the helper before the caller wakes, so the
    # caller frees them at the same point of every pass
    call = [functools.partial(fn, *args, **kwargs)]
    return _helper[1].submit(lambda: call.pop()()).result


def _start(arch: ModelArch, params: ParameterSet, inputs: np.ndarray):
    """Pair every layer with its parameters (None for the others), checking
    their shapes, and view the inputs channels-last, cast to the pass's
    dtype: the first weight's, or float64 for integer weights."""
    entries = iter(params.entries)
    bound = []
    for layer in arch.layers:
        e = None
        if isinstance(layer, (Dense, Conv2d)):
            e = next(entries, None)
            want = _param_shapes(layer)
            if e is None or (e.weight.shape, e.bias.shape) != want:
                got = None if e is None else (e.weight.shape, e.bias.shape)
                raise ShapeError(f"params for '{layer.name}' have (weight, bias) "
                                 f"shapes {got}, arch wants {want}")
        bound.append((layer, e))
    dtype = np.result_type(params.entries[0].weight, np.float32) if params.entries else np.float64
    x = np.asarray(inputs, dtype=dtype)
    if x.shape[1:] != tuple(arch.input_shape):
        raise ShapeError(f"inputs have per-example shape {x.shape[1:]}, "
                         f"arch wants {tuple(arch.input_shape)}")
    return bound, (x.transpose(0, 2, 3, 1) if x.ndim == 4 else x)


@functools.lru_cache(maxsize=64)
def _im2col_index(h: int, w: int, c: int, k: int, stride: int):
    """(H, W, C) offsets of the im2col entries in (Ho, Wo, C, k, k) order; Ho; Wo."""
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    rows = np.arange(ho)[:, None, None, None, None] * stride + np.arange(k)[:, None]
    cols = np.arange(wo)[:, None, None, None] * stride + np.arange(k)
    idx = ((rows * w + cols) * c + np.arange(c)[:, None, None]).ravel()
    idx.flags.writeable = False            # one array shared by every caller of the cache
    return idx, ho, wo


def _col2im(dcols: np.ndarray, x_shape, k: int, stride: int, ho: int, wo: int):
    b, h, w, c = x_shape
    dx = np.zeros(x_shape, dcols.dtype)
    dcols = dcols.reshape(b, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dx[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += dcols[..., i, j]
    return dx


def _maxpool(x: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    # Max over the k*k strided views of x: (B, H, W, C).  A +0/-0 tie may keep
    # either zero; activations are only compared or fed to GEMMs, which
    # accumulate from +0, so the sign never reaches logits or gradients.
    views = [x[:, i::k, j::k] for i in range(k) for j in range(k)]
    m = np.maximum(views[0], views[-1], out=out)
    for v in views[1:-1]:
        np.maximum(m, v, out=m)
    return m


def _maxpool_backward(dout: np.ndarray, x: np.ndarray, m: np.ndarray, k: int):
    """Route each window's gradient to the element argmax would pick: the
    first equal to the max, or the first NaN."""
    dx = np.empty(x.shape, x.dtype)
    rest = np.ones(m.shape, dtype=bool)                     # windows not yet routed
    has_nan = bool(np.isnan(m).any())
    for n in range(k * k):
        i, j = divmod(n, k)
        v = x[:, i::k, j::k]
        if n < k * k - 1:
            hit = v == m
            if has_nan:
                hit |= np.isnan(v)
            hit &= rest
        else:                                               # the max of every window left
            hit = rest
        dx[:, i::k, j::k] = np.where(hit, dout, 0.0)
        rest ^= hit
    return dx


@functools.lru_cache(maxsize=64)
def _stack_layout(layers: tuple, shape: tuple, dtype: np.dtype):
    """Per layer of a conv/pool stack, the per-example (shape, dtype) of each
    array its pass writes: a conv's im2col matrix and output, a ReLU's mask
    and output, a pool's output, all channels-last and, but for the masks,
    of the pass's ``dtype``.  Also the flattened feature count.  ``shape`` is
    the channels-first input shape."""
    layout = []
    for layer in layers:
        c = shape[0]
        shape = _infer_shape(layer, shape)
        out = ((shape[1], shape[2], shape[0]), dtype)
        if isinstance(layer, Conv2d):
            layout.append((((shape[1] * shape[2], c * layer.kernel ** 2), dtype), out))
        elif isinstance(layer, ReLU):
            layout.append(((out[0], np.bool_), out))
        else:
            layout.append((out,))
    return tuple(layout), int(np.prod(shape))


def _buffer_sets(layout, counts: list, keep: bool) -> list:
    """One set of the arrays of a ``_stack_layout`` per example count in
    ``counts``, all carved from one allocation.  As separate arrays, LeNet-5's
    5.2 MB set for 10 examples was faulted in again on every pass (1,280
    minor faults), because glibc returned the freed heap top to the system.
    With ``keep`` every array has its own memory (``backward``'s caches);
    without, every conv's im2col matrix and ReLU's mask share one scratch
    array, and the layer outputs take turns in two more."""
    places, at = [], 0
    for rows in counts:
        start, place = {}, []
        for i, spec in enumerate(layout):
            for j, (s, d) in enumerate(spec):
                key = (i, j) if keep else (0 if j < len(spec) - 1 else 1 + i % 2)
                size = -(-rows * int(np.prod(s)) * np.dtype(d).itemsize // 64) * 64
                start[key] = max(start.get(key, 0), size)
                place.append(key)
        for key, size in start.items():
            start[key], at = at, at + size
        places.append([start[key] for key in place])
    block = np.empty(at, np.uint8)
    sets = []
    for rows, place in zip(counts, places):
        offsets = iter(place)
        sets.append([tuple(block[next(offsets):].view(d)[:rows * int(np.prod(s))].reshape(rows, *s)
                           for s, d in spec) for spec in layout])
    return sets


def _stack_part(stack, x: np.ndarray, arrays: list, flat: np.ndarray, tile: int) -> None:
    """Run the (layer, params, wmat) triples of a conv/pool stack on x,
    ``tile`` examples at a time, each tile through the first rows of
    ``arrays`` (laid out as ``_stack_layout`` says), and write the flattened
    (c, h, w) features into flat."""
    for i in range(0, len(x), tile):
        h = x[i:i + tile]
        n = len(h)
        for (layer, e, wmat), outs in zip(stack, arrays):
            out = outs[-1][:n]
            if isinstance(layer, Conv2d):
                cols = outs[0][:n]
                idx, _, _ = _im2col_index(*h.shape[1:], layer.kernel, layer.stride)
                np.take(h.reshape(n, -1), idx, axis=1, out=cols.reshape(n, -1), mode="wrap")
                o = out.reshape(-1, layer.out_ch)
                np.matmul(cols.reshape(-1, cols.shape[2]), wmat, out=o)
                o += e.bias
            elif isinstance(layer, ReLU):
                mask = outs[0][:n]
                np.greater(h, 0, out=mask)
                np.multiply(h, mask, out=out)
            else:
                _maxpool(h, layer.k, out)
            h = out
        b, hh, ww, c = h.shape
        np.copyto(flat[i:i + n].reshape(b, c, hh, ww), h.transpose(0, 3, 1, 2))


def _conv_stack(bound, x: np.ndarray, caches: list | None):
    """Run the layers up to the Flatten on x: (B, H, W, C); return the
    flattened features and the number of layers run.

    The blocks are those the module docstring states.  With ``caches``
    (``backward``), the stack runs on the two halves of the batch, each one
    block, writing full-batch arrays, which are appended to caches as
    ``backward`` reads them; without, it runs on tiles of ``_TILE`` examples
    through one buffer set per part.  The first part (the first half, or the
    first half of the tiles) runs on the helper thread and the rest on the
    caller; an empty first part leaves all of x to the caller."""
    cut = next(n for n, (layer, _) in enumerate(bound) if isinstance(layer, Flatten))
    stack = [(layer, e, None if e is None else e.weight.reshape(layer.out_ch, -1).T)
             for layer, e in bound[:cut]]
    layout, features = _stack_layout(tuple(layer for layer, _ in bound[:cut]),
                                     (x.shape[3], x.shape[1], x.shape[2]), x.dtype)
    n = len(x)
    bounds = (0, n // 2, n) if caches is not None else (*range(0, n, _TILE), n)
    mid = bounds[(len(bounds) - 1) // 2]
    spans = [(0, mid), (mid, n)] if mid > 0 else [(0, n)]
    tile = _TILE if caches is None else n

    if caches is None:
        sets = _buffer_sets(layout, [min(tile, e - s) for s, e in spans], keep=False)
    else:
        full, = _buffer_sets(layout, [n], keep=True)
        sets = [[tuple(a[s:e] for a in outs) for outs in full] for s, e in spans]
    flat = np.empty((n, features), x.dtype)
    runs = [functools.partial(_stack_part, stack, x[s:e], arrays, flat[s:e], tile)
            for (s, e), arrays in zip(spans, sets)]
    _wait_all([runs[1], _offload(True, runs[0])] if mid > 0 else runs)

    if caches is not None:
        h = x
        for (layer, _, _), outs in zip(stack, full):
            if isinstance(layer, Conv2d):
                caches.append((h.shape, outs[0].reshape(-1, outs[0].shape[2]),
                               *outs[1].shape[1:3]))
            elif isinstance(layer, ReLU):
                caches.append(outs[0])
            else:
                caches.append((h, outs[0]))
            h = outs[-1]
        caches.append(h.shape)
    return flat, cut + 1


def _forward(bound, x: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Run (layer, params) pairs on x; append what backward needs to ``caches``
    when given.  The layers up to the Flatten of a (B, H, W, C) input
    run through ``_conv_stack``, the rest on the whole batch."""
    done = 0
    if x.ndim == 4:
        x, done = _conv_stack(bound, x, caches)
    for layer, e in bound[done:]:
        if isinstance(layer, Dense):
            cache = x
            x = x @ e.weight
            x += e.bias
        else:               # a ReLU: every Flatten ran in _conv_stack
            cache = x > 0
            x = x * cache
        if caches is not None:
            caches.append(cache)
        del cache       # without caches, a layer's input dies with the layer
    return x


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward_loss(arch: ModelArch, params: ParameterSet, batch: Batch):
    """Mean softmax cross-entropy over the batch; returns (loss, logits)."""
    logits = _forward(*_start(arch, params, batch.inputs))
    b = len(batch.labels)
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(b), batch.labels].mean()
    return float(loss), logits


def backward(arch: ModelArch, params: ParameterSet, batch: Batch,
             then: Callable[[str, np.ndarray, np.ndarray], None] | None = None,
             ) -> ParameterSet:
    """Analytic gradient of forward_loss w.r.t. every parameter.

    With ``then``, each parameterized layer's then(layer_id, dw, db) is queued
    on the helper thread, behind that layer's weight-gradient GEMM, once the
    pass has made its last read of that layer's weight: after ``dout @ W.T``
    or ``dmat @ W``.  The hooks run one at a time, from the last layer to the
    first, and may write that layer's parameters; dw and db are the returned
    gradient's arrays.  ``backward`` returns, or raises the first hook's
    exception, only when every hook has finished."""
    bound, x = _start(arch, params, batch.inputs)
    caches: list = []
    logits = _forward(bound, x, caches)
    b = len(batch.labels)
    dout = _softmax(logits)
    dout[np.arange(b), batch.labels] -= 1.0
    dout /= b

    # Nothing below the first parameterized layer needs a gradient.  Above
    # it, each weight gradient is offloaded to the helper thread while this
    # thread computes the input gradient; both only read dout and the caches.
    first = next((n for n, (_, e) in enumerate(bound) if e is not None), len(bound))
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    waits = []

    def release(e: LayerParams) -> None:    # the pass has made its last read of e.weight
        if then is not None:
            waits.append(_offload(True, then, e.layer_id, *grads[e.layer_id]))
    try:
        for n in range(len(bound) - 1, first - 1, -1):
            (layer, e), cache = bound[n], caches[n]
            if isinstance(layer, Dense):
                dw = np.empty(e.weight.shape, x.dtype)
                waits.append(_offload(n > first, np.matmul, cache.T, dout, out=dw))
                grads[e.layer_id] = (dw, dout.sum(axis=0))
                if n > first:
                    dout = dout @ e.weight.T
                release(e)
            elif isinstance(layer, Conv2d):
                x_shape, cols, ho, wo = cache
                dmat = dout.reshape(-1, layer.out_ch)
                dwt = np.empty((cols.shape[1], layer.out_ch), x.dtype)   # (C*k*k, out_ch)
                waits.append(_offload(n > first, np.matmul, cols.T, dmat, out=dwt))
                # At one example the channels-first gradient reshaped to a
                # column-major (H*W, C) view; keep its order of summation.
                db = dmat.sum(axis=0) if b > 1 else np.ascontiguousarray(dmat.T).sum(axis=1)
                grads[e.layer_id] = (dwt.T.reshape(e.weight.shape), db)
                dcols = dmat @ e.weight.reshape(layer.out_ch, -1) if n > first else None
                release(e)
                if dcols is not None:
                    dout = _col2im(dcols, x_shape, layer.kernel, layer.stride, ho, wo)
            elif isinstance(layer, ReLU):
                dout = dout * cache
            elif isinstance(layer, MaxPool):
                dout = _maxpool_backward(dout, *cache, layer.k)
            elif isinstance(layer, Flatten):
                bb, h, w, c = cache
                dout = dout.reshape(bb, c, h, w).transpose(0, 2, 3, 1)
    finally:
        _wait_all(waits)        # never return while the helper still runs

    return ParameterSet(tuple(LayerParams(e.layer_id, *grads[e.layer_id])
                              for e in params.entries))


def _wait_all(waits: list) -> None:
    """Call every wait, then raise the first exception one of them raised."""
    error = None
    for wait in waits:
        try:
            wait()
        except BaseException as exc:
            error = error or exc
    if error is not None:
        raise error


def _logits(arch: ModelArch, params: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    """Logits without backprop caches; the conv/pool layers run in tiles (see
    ``_conv_stack``), the dense layers on all of ``inputs``."""
    return _forward(*_start(arch, params, inputs))


def predict(arch: ModelArch, params: ParameterSet, inputs: np.ndarray) -> np.ndarray:
    return np.argmax(_logits(arch, params, inputs), axis=1)


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
