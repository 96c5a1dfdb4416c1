"""Textbook implementations that tests compare fedprune with, byte for byte.

- ``ref_backward`` and ``ref_evaluate``: channels-first im2col passes with
  argmax pooling, on the calling thread alone;
- ``reference_project``: the argsort projection;
- ``ref_client_round``: one client's local round, its ADMM update and its
  pruned upload, one new dense tensor per term;
- ``ref_admm_update``: the dense Z step, then the U step;
- ``ref_fedavg``: dense fp64 FedAvg in client-id order;
- ``reference_run``: a whole federated run built from the three above.
"""

import numpy as np

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
    dx = np.zeros(x_shape)
    dcols = dcols.reshape(b, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dx[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    return dx


def ref_forward(arch, params, x):
    caches = []
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
            out = cols @ wmat + e.bias
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


def ref_backward(arch, params, batch):
    x = np.asarray(batch.inputs, dtype=np.float64)
    logits, caches = ref_forward(arch, params, x)
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
            dxr = np.zeros((bb, c, ho, wo, k * k))
            np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
            dout = dxr.reshape(bb, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5) \
                      .reshape(x_shape)
        elif kind == "flatten":
            dout = dout.reshape(cache[1])
    return [grads[e.layer_id] for e in params.entries]


def ref_logits(arch, params, inputs):
    return ref_forward(arch, params, np.asarray(inputs, dtype=np.float64))[0]


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


# -- reference: one client's round, the ADMM update, FedAvg, a whole run -----

def _project(w, keep):
    """reference_project to a layer's budget: keep * size, rounded, at least
    1 and at most the size."""
    return reference_project(w, min(w.size, max(1, int(round(keep * w.size)))))


def _prune(params, sparsity):
    return params.map(lambda lid, w, b: (
        _project(w, sparsity.keep[lid]) if lid in sparsity.keep else w, b))


def _wire(params):
    """params as a broadcast or an upload carries them: cast to fp32 and back."""
    return params.map(lambda lid, w, b: (w.astype(np.float32).astype(np.float64),
                                         b.astype(np.float32).astype(np.float64)))


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
    zeros, each client's (count / total) * params added in client-id order."""
    uploads = sorted(uploads, key=lambda r: r[0])
    total = float(sum(n for _cid, _p, n in uploads))
    model = uploads[0][1].map(lambda lid, w, b: (np.zeros_like(w), np.zeros_like(b)))
    for _cid, params, n in uploads:
        model = _combine(model, params, lambda acc, up: acc + (n / total) * up)
    return model


def reference_run(cfg):
    """(final model, per-round accuracies, final accuracy) of
    federation.run_experiment(cfg), computed without crypto, codec or
    sparse storage: ref_client_round of each sampled client, a cast to fp32
    at every broadcast and upload, and ref_fedavg of the uploads."""
    dataset, arch = cfg.load_dataset(), cfg.build_arch()
    s_partition, s_init, s_sample, _ = (int(s.generate_state(1)[0])
                                        for s in np.random.SeedSequence(cfg.seed).spawn(4))
    if cfg.partition == "iid":
        part = federation.partition_iid(len(dataset.train_y), cfg.num_clients, s_partition)
    else:
        part = federation.partition_noniid(dataset.train_y, cfg.num_clients, s_partition)
    eval_x, eval_y = dataset.test_x[:cfg.eval_examples], dataset.test_y[:cfg.eval_examples]
    sample_rng = np.random.default_rng(s_sample)
    model, mask, admm, accs = nn.init_model(arch, s_init), None, {}, []
    for rnd in range(cfg.total_rounds()):
        plan = federation.plan_round(cfg, rnd)
        received, uploads = _wire(model), []
        for cid in map(int, sample_rng.choice(cfg.num_clients, cfg.clients_per_round,
                                              replace=False)):
            upload, zu = ref_client_round(arch, received, dataset.train_x[part[cid]],
                                          dataset.train_y[part[cid]], cfg, plan,
                                          federation._client_seed(cfg.seed, rnd, cid),
                                          admm.get(cid), mask)
            if zu is not None:
                admm[cid] = zu
            uploads.append((cid, _wire(upload), len(part[cid])))
        model = ref_fedavg(uploads)
        if plan.finalize_after:
            model = _prune(model, cfg.sparsity)
            mask = {lid: model[lid].weight != 0.0 for lid in cfg.sparsity.keep}
            admm.clear()
        accs.append(ref_evaluate(arch, model, eval_x, eval_y, cfg.eval_batch_size))
    if cfg.mode == "masked" and cfg.sparsity is not None and cfg.pruning_rounds > 0:
        model = _prune(model, cfg.sparsity)
    return model, accs, ref_evaluate(arch, model, eval_x, eval_y, cfg.eval_batch_size)
