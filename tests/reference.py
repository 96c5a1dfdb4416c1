"""Textbook implementations that tests compare fedprune with, byte for byte.

- ``ref_backward`` and ``ref_evaluate``: channels-first im2col passes with
  argmax pooling, on the calling thread alone, in the dtype of the
  parameters they are given, each conv GEMM on the example blocks that
  nn's docstring makes part of a pass (``ref_blocks``): the two halves of
  a training batch, tiles of 10 examples otherwise;
- ``reference_project``: the argsort projection, and ``brute_force_project``,
  the exhaustive search it is checked against;
- ``ref_client_round``: one client's local round, its ADMM update and its
  pruned upload, one new dense tensor per term;
- ``ref_admm_update``: the dense Z step, then the U step;
- ``ref_fedavg``: dense fp64 FedAvg in client-id order;
- ``reference_run``: a whole federated run built from the three above, with
  chosen uploads left out of their round's FedAvg; ``ref_cast``, which
  casts to fp32 as the wire does, and ``ref_wire``, that cast widened back
  to fp64;
- ``ref_frame``, ``ref_encode``, ``ref_decode`` and ``ref_seal``: the wire
  formats, written field by field from the layouts in the codec and secure
  docstrings.
"""

import itertools
import struct

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from fedprune import federation, nn


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_params(a, b):
    """Two ParameterSets with the same layer ids, weight bytes and bias bytes."""
    return [e.layer_id for e in a.entries] == [e.layer_id for e in b.entries] and all(
        same_bytes(x.weight, y.weight) and same_bytes(x.bias, y.bias)
        for x, y in zip(a.entries, b.entries))


# -- reference: channels-first im2col + GEMM with argmax pooling -------------

def ref_im2col(x, k, stride):
    b, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * k * k)
    return np.ascontiguousarray(cols), ho, wo


def ref_col2im(dcols, x_shape, k, stride, ho, wo):
    b, c, h, w = x_shape
    dx = np.zeros(x_shape, dcols.dtype)
    dcols = dcols.reshape(b, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx


def ref_blocks(n, training):
    """The example blocks each conv GEMM of a pass runs on, as bounds: the
    two halves of a training pass's batch, and tiles of 10 examples, the
    last one possibly short, in every other pass."""
    return (0, n // 2, n) if training else (*range(0, n, 10), n)


def ref_forward(arch, params, x, training=False):
    """Logits and backward's caches of x; each conv GEMM runs on the example
    blocks of ref_blocks, every other GEMM on the whole batch."""
    caches = []
    bounds = ref_blocks(len(x), training)
    pidx = 0
    pl = params.entries
    for layer in arch.layers:
        if isinstance(layer, nn.Dense):
            e = pl[pidx]; pidx += 1
            caches.append(("dense", x, e))
            x = x @ e.weight + e.bias
        elif isinstance(layer, nn.Conv2d):
            e = pl[pidx]; pidx += 1
            cols, ho, wo = ref_im2col(x, layer.kernel, layer.stride)
            wmat = e.weight.reshape(layer.out_ch, -1).T
            rows = ho * wo
            out = np.concatenate([cols[lo * rows:hi * rows] @ wmat
                                  for lo, hi in zip(bounds, bounds[1:])]) + e.bias
            caches.append(("conv", x.shape, cols, e, layer, ho, wo))
            x = out.reshape(x.shape[0], ho, wo, layer.out_ch).transpose(0, 3, 1, 2)
        elif isinstance(layer, nn.ReLU):
            mask = x > 0
            caches.append(("relu", mask))
            x = x * mask
        elif isinstance(layer, nn.MaxPool):
            k = layer.k
            b, c, h, w = x.shape
            xr = x.reshape(b, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
            xr = xr.reshape(b, c, h // k, w // k, k * k)
            idx = np.argmax(xr, axis=-1)
            caches.append(("pool", x.shape, idx, k))
            x = np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0]
        elif isinstance(layer, nn.Flatten):
            caches.append(("flatten", x.shape))
            x = x.reshape(x.shape[0], -1)
    return x, caches


def ref_dtype(params):
    """The dtype a pass on params computes in: that of its weights."""
    return params.entries[0].weight.dtype


def ref_backward(arch, params, batch):
    x = np.asarray(batch.inputs, dtype=ref_dtype(params))
    logits, caches = ref_forward(arch, params, x, training=True)
    b = len(batch.labels)
    dout = nn._softmax(logits)
    dout[np.arange(b), batch.labels] -= 1.0
    dout /= b
    grads = {}
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
            dout = ref_col2im(dcols, x_shape, lyr.kernel, lyr.stride, ho, wo)
        elif kind == "relu":
            dout = dout * cache[1]
        elif kind == "pool":
            _, x_shape, idx, k = cache
            bb, c, ho, wo = idx.shape
            dxr = np.zeros((bb, c, ho, wo, k * k), dout.dtype)
            np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
            dout = dxr.reshape(bb, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5) \
                      .reshape(x_shape)
        elif kind == "flatten":
            dout = dout.reshape(cache[1])
    return [grads[e.layer_id] for e in params.entries]


def ref_logits(arch, params, inputs):
    return ref_forward(arch, params, np.asarray(inputs, dtype=ref_dtype(params)))[0]


def ref_evaluate(arch, params, inputs, labels, batch_size):
    correct = 0
    for i in range(0, len(labels), batch_size):
        pred = np.argmax(ref_logits(arch, params, inputs[i:i + batch_size]), axis=1)
        correct += int((pred == labels[i:i + batch_size]).sum())
    return correct / len(labels)


# -- reference: the projection ----------------------------------------------

def reference_project(t, n_keep):
    """The original argsort projection, kept as the bit-exact oracle for
    euclidean_project: a stable sort on -|t| ranks NaN below every magnitude
    and breaks ties toward the lowest flat index."""
    if n_keep == t.size:
        return t.copy()
    flat = t.reshape(-1)
    order = np.argsort(-np.abs(flat), kind="stable")
    out = np.zeros_like(flat)
    keep = order[:n_keep]
    out[keep] = flat[keep]
    return out.reshape(t.shape)


def brute_force_project(t, n_keep):
    """Exhaustive oracle: best cardinality-n_keep support by L2 distance,
    ties resolved toward lexicographically smallest index set."""
    flat = t.reshape(-1)
    best = None
    for support in itertools.combinations(range(flat.size), n_keep):
        cand = np.zeros_like(flat)
        cand[list(support)] = flat[list(support)]
        d = float(np.sum((cand - flat) ** 2))
        if best is None or d < best[0] - 1e-15 or \
                (abs(d - best[0]) <= 1e-15 and support < best[1]):
            best = (d, support, cand)
    return best[2].reshape(t.shape)


# -- reference: one client's round, the ADMM update, FedAvg, a whole run -----

def ref_budget(size, keep):
    """A layer's non-zero budget: keep * size, rounded, at least 1 and at
    most the size."""
    return min(size, max(1, int(round(keep * size))))


def _project(w, keep):
    """reference_project to the layer's budget."""
    return reference_project(w, ref_budget(w.size, keep))


def _prune(params, sparsity):
    return params.map(lambda lid, w, b: (
        _project(w, sparsity.keep[lid]) if lid in sparsity.keep else w, b))


def ref_cast(params, dtype):
    """params with every tensor cast to dtype; at fp32, as a broadcast or an
    upload carries them."""
    return params.map(lambda lid, w, b: (w.astype(dtype), b.astype(dtype)))


def ref_wire(params):
    """params cast to fp32 at the wire and widened back to fp64, as the
    enclave widens them."""
    return ref_cast(ref_cast(params, np.float32), np.float64)


def _combine(a, b, fn):
    """fn(x, y) of each pair of weights and of biases."""
    return a.map(lambda lid, w, bias: (fn(w, b[lid].weight), fn(bias, b[lid].bias)))


def _train(arch, params, x, y, cfg, seed, rho=None, z=None, u=None, mask=None):
    """Local epochs of momentum SGD.  A layer with a Z adds rho*((W - Z) + U)
    to its weight gradient, and a masked layer's weight gradient is 0.0 off
    the mask; the velocity is g on the first step and momentum*v + g after,
    and the step is W - lr*v."""
    rng = np.random.default_rng(seed)
    v = None
    for _ in range(cfg.local_epochs):
        perm = rng.permutation(len(y))
        for lo in range(0, len(y), cfg.batch_size):
            ix = perm[lo:lo + cfg.batch_size]
            grads = dict(zip([e.layer_id for e in params.entries],
                             ref_backward(arch, params, nn.Batch(x[ix], y[ix]))))

            def grad(lid, w, b):
                gw, gb = grads[lid]
                if z is not None and lid in z:
                    gw = gw + rho * ((w - z[lid]) + u[lid])
                if mask is not None and lid in mask:
                    gw = np.where(mask[lid], gw, 0.0)
                return gw, gb
            g = params.map(grad)
            v = g if v is None else _combine(v, g, lambda vi, gi: cfg.momentum * vi + gi)
            params = _combine(params, v, lambda wi, vi: wi - cfg.lr * vi)
    return params


def ref_admm_update(params, u, keep):
    """The Z step, then the U step, of every layer in U: Z = project(W + U)
    to the layer's keep fraction, then U = (U + W) - Z.  Returns the new
    (Z, U), both dicts of dense tensors."""
    z = {lid: _project(params[lid].weight + u[lid], keep[lid]) for lid in u}
    return z, {lid: (u[lid] + params[lid].weight) - z[lid] for lid in u}


def ref_client_round(arch, received, x, y, cfg, plan, seed, zu=None, mask=None):
    """One client's round on the model it received: (its upload before the
    wire cast, its (Z, U) after the round, or None outside ADMM rounds).  An
    ADMM round starts from zu, or in the client's first one from
    Z = project(W) and U = 0, and ends with ref_admm_update of the trained
    weights; mask maps a layer to its kept weights.  A round with a stage
    uploads the trained model projected to it."""
    stage, rho, z, u = plan.stage_cfg, None, None, None
    if plan.phase == federation.PHASE_ADMM:
        rho, (z, u) = stage.rho, zu or (
            {lid: _project(received[lid].weight, f) for lid, f in stage.keep.items()},
            {lid: np.zeros_like(received[lid].weight) for lid in stage.keep})
    trained = _train(arch, received, x, y, cfg, seed, rho, z, u, mask)
    return (_prune(trained, stage) if stage is not None else trained,
            ref_admm_update(trained, u, stage.keep) if z is not None else None)


def ref_fedavg(uploads):
    """FedAvg of (client id, params, example count) triples: from fp64
    zeros, each client's (count / total) * params, widened to fp64 first,
    added in client-id order."""
    uploads = sorted(uploads, key=lambda r: r[0])
    total = float(sum(n for _cid, _p, n in uploads))
    model = uploads[0][1].map(lambda lid, w, b: (np.zeros(w.shape), np.zeros(b.shape)))
    for _cid, params, n in uploads:
        model = _combine(model, params,
                         lambda acc, up: acc + (n / total) * up.astype(np.float64))
    return model


def ref_seeds(cfg):
    """The partition, init, sample and crypto seeds a run draws from cfg.seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(cfg.seed).spawn(4)]


def ref_cohorts(cfg):
    """Each round's sampled client ids, in the order they are drawn."""
    rng = np.random.default_rng(ref_seeds(cfg)[2])
    return [list(map(int, rng.choice(cfg.num_clients, cfg.clients_per_round, replace=False)))
            for _ in range(cfg.total_rounds())]


def reference_run(cfg, left_out=()):
    """(final model, per-round accuracies, final accuracy) of
    federation.run_experiment(cfg), computed without crypto, codec or
    sparse storage: the fp64 global model is cast to fp32 at every
    broadcast, each sampled client runs ref_client_round on that fp32 model
    (so it trains, steps and keeps its Z and U in fp32), ref_fedavg averages
    the fp32 uploads, and every evaluation runs on the fp32 cast of the
    model.  The upload of each (round, client) in left_out is trained but
    not averaged, as if the enclave had rejected it."""
    dataset, arch = cfg.load_dataset(), cfg.build_arch()
    s_partition, s_init, _, _ = ref_seeds(cfg)
    if cfg.partition == "iid":
        part = federation.partition_iid(len(dataset.train_y), cfg.num_clients, s_partition)
    else:
        part = federation.partition_noniid(dataset.train_y, cfg.num_clients, s_partition)
    eval_x, eval_y = dataset.test_x[:cfg.eval_examples], dataset.test_y[:cfg.eval_examples]
    model, mask, admm, accs = nn.init_model(arch, s_init), None, {}, []

    def accuracy(model):
        return ref_evaluate(arch, ref_cast(model, np.float32), eval_x, eval_y,
                            cfg.eval_batch_size)
    for rnd, cohort in enumerate(ref_cohorts(cfg)):
        plan = federation.plan_round(cfg, rnd)
        received, uploads = ref_cast(model, np.float32), []
        for cid in cohort:
            upload, zu = ref_client_round(arch, received, dataset.train_x[part[cid]],
                                          dataset.train_y[part[cid]], cfg, plan,
                                          federation._client_seed(cfg.seed, rnd, cid),
                                          admm.get(cid), mask)
            if zu is not None:
                admm[cid] = zu
            if (rnd, cid) not in left_out:
                uploads.append((cid, ref_cast(upload, np.float32), len(part[cid])))
        model = ref_fedavg(uploads)
        if plan.finalize_after:
            model = _prune(model, cfg.sparsity)
            mask = {lid: model[lid].weight != 0.0 for lid in cfg.sparsity.keep}
            admm.clear()
        accs.append(accuracy(model))
    if cfg.mode == "masked" and cfg.sparsity is not None and cfg.pruning_rounds > 0:
        model = _prune(model, cfg.sparsity)
    return model, accs, accuracy(model)


# -- reference: the wire formats ----------------------------------------------

def _le(values, dtype):
    return np.asarray(values, dtype=dtype).reshape(-1).tobytes()


def ref_frame(fmt, layers):
    """A codec blob in format "dense" or "csr" of layers, each (id, dims,
    body, bias), where a dense body is the values and a CSR body is (rows,
    cols, row_ptr, col_idx, values), with nnz = len(col_idx).  Nothing is
    checked, so it also writes the frames a decoder must refuse."""
    out = [b"ESMB", struct.pack("<BBH", 1, ["dense", "csr"].index(fmt), len(layers))]
    for lid, dims, body, bias in layers:
        name = lid.encode()
        out.append(struct.pack(f"<B{len(name)}sB{len(dims)}I", len(name), name, len(dims), *dims))
        if fmt == "csr":
            rows, cols, row_ptr, col_idx, body = body
            out += [struct.pack("<III", rows, cols, len(col_idx)),
                    _le(row_ptr, "<u4"), _le(col_idx, "<u4")]
        out += [_le(body, "<f4"), struct.pack("<I", np.size(bias)), _le(bias, "<f4")]
    return b"".join(out)


def ref_decode(blob):
    """The params a codec blob carries, fp32 as on the wire, read field by
    field: the magic, version, format and layer count, then per layer its
    id, dims and body, dense values or a CSR matrix view (rows, cols, nnz,
    row_ptr, col_idx, values) of the weight, and its bias."""
    at = 0

    def take(fmt):
        nonlocal at
        out = struct.unpack_from(fmt, blob, at)
        at += struct.calcsize(fmt)
        return out

    magic, version, fmt, n_layers = take("<4sBBH")
    assert (magic, version, fmt) in ((b"ESMB", 1, 0), (b"ESMB", 1, 1))
    layers = []
    for _ in range(n_layers):
        name = take(f"<{take('<B')[0]}s")[0].decode()
        ndim, = take("<B")
        dims = take(f"<{ndim}I")
        if fmt == 0:
            w = np.array(take(f"<{int(np.prod(dims))}f"), np.float32)
        else:
            rows, cols, nnz = take("<III")
            row_ptr, col_idx, values = take(f"<{rows + 1}I"), take(f"<{nnz}I"), take(f"<{nnz}f")
            w = np.zeros((rows, cols), np.float32)
            for r in range(rows):
                for i in range(row_ptr[r], row_ptr[r + 1]):
                    w[r, col_idx[i]] = values[i]
        bias_len, = take("<I")
        layers.append(nn.LayerParams(name, w.reshape(dims),
                                     np.array(take(f"<{bias_len}f"), np.float32)))
    assert at == len(blob)
    return nn.ParameterSet(tuple(layers))


def ref_encode(params, fmt):
    """The blob of params in format "dense" or "csr".  Every weight and bias
    is cast to fp32, and a scalar weight has dims (1,).  A CSR weight is
    viewed as a (first dim) x (the rest) matrix; its non-zeros are those of
    the fp32 values, stored row by row in column order."""
    layers = []
    for e in params.entries:
        w = e.weight.astype(np.float32)
        body = w
        if fmt == "csr":
            m = w.reshape((w.shape or (1,))[0], -1)
            rows, cols = np.nonzero(m)
            body = (*m.shape, np.concatenate([[0], np.cumsum(np.count_nonzero(m, axis=1))]),
                    cols, m[rows, cols])
        layers.append((e.layer_id, w.shape or (1,), body, e.bias.astype(np.float32)))
    return ref_frame(fmt, layers)


def ref_seal(key, client_id, rnd, fmt, blob, nonce=None):
    """The sealed record of blob: the header, then AES-256-GCM of blob under
    key with the header as associated data.  The nonce is the client id, the
    round and four zero bytes unless given."""
    nonce = struct.pack("<II4x", client_id, rnd) if nonce is None else nonce
    header = struct.pack("<4sBIIB12sQ", b"ESMF", 1, client_id, rnd, fmt, nonce, len(blob) + 16)
    return header + AESGCM(key).encrypt(nonce, blob, header)
