"""The channels-last kernels of ``nn`` against the channels-first reference
passes of reference.py (a copy of the kernels they replaced), compared byte
for byte.

Both paths run on the same host's BLAS, so the comparison does not depend on
the CPU.  Both run each conv GEMM on the example blocks that ``nn``'s
docstring makes part of a pass, halves in training and tiles of 10
otherwise, and the reference writes those blocks itself, so a change of
blocking fails here on any kernel.  Inputs are sparse and binary so that
many pooling windows tie.  The reference runs on the calling thread alone,
so the same comparison pins the work ``nn`` hands to its helper thread.  Both compute in the dtype of
the parameters they are given, so the byte cases run at float64 and again
at float32 (the ``Fp32`` classes), the precision clients train in.
"""

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fedprune import federation, nn
from fedprune.pruning import SparsityConfig, euclidean_project
from reference import ref_backward, ref_budget, ref_cast, ref_evaluate, ref_logits, same_bytes
from test_pruning import LENET_KEEP_CR87


# -- models and data ---------------------------------------------------------

def stride2_stack():
    return nn.ModelArch((nn.Conv2d("c1", 2, 4, 3), nn.ReLU(), nn.MaxPool(2),
                         nn.Conv2d("c2", 4, 6, 3, stride=2), nn.Flatten(),
                         nn.Dense("f", 6 * 3 * 3, 5)), (2, 16, 16), 5)


def cr87(params):
    return params.map(lambda lid, w, b: (
        euclidean_project(w, ref_budget(w.size, LENET_KEEP_CR87[lid])), b))


MODELS = {
    "lenet5": (nn.lenet5, lambda p: p),
    "lenet5_cr87": (nn.lenet5, cr87),
    "small_convnet": (nn.small_convnet, lambda p: p),
    "stride2_stack": (stride2_stack, lambda p: p),
}


def tied_inputs(arch, n, seed):
    """Sparse binary images: zero patches give equal conv outputs, so many
    pooling windows tie."""
    rng = np.random.default_rng(seed)
    x = (rng.random((n, *arch.input_shape)) < 0.3).astype(np.float64)
    return x, rng.integers(0, arch.num_classes, size=n)


# -- tests -------------------------------------------------------------------

class TestGradientBytes:
    dtype = np.float64          # of the parameters, and so of every pass

    @pytest.mark.parametrize("biased", [False, True])
    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7, 10, 11])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_backward_matches_reference(self, model, batch_size, biased):
        make, prune = MODELS[model]
        arch = make()
        params = prune(nn.init_model(arch, seed=4))
        if biased:    # zero biases give exact-zero conv outputs on zero patches
            rng = np.random.default_rng(5)
            params = params.map(lambda lid, w, b: (w, rng.normal(scale=0.1, size=b.shape)))
        params = ref_cast(params, self.dtype)
        x, y = tied_inputs(arch, batch_size, seed=batch_size)
        got = nn.backward(arch, params, nn.Batch(x, y))
        for e, (gw, gb) in zip(got.entries, ref_backward(arch, params, nn.Batch(x, y))):
            assert e.weight.dtype == self.dtype, e.layer_id
            assert same_bytes(e.weight, gw), e.layer_id
            assert same_bytes(e.bias, gb), e.layer_id

    def test_forward_loss_logits_match_reference(self):
        arch = nn.lenet5()
        params = ref_cast(nn.init_model(arch, seed=4), self.dtype)
        x, y = tied_inputs(arch, 10, seed=0)
        _, logits = nn.forward_loss(arch, params, nn.Batch(x, y))
        assert logits.dtype == self.dtype
        assert same_bytes(logits, ref_logits(arch, params, x))

    @pytest.mark.parametrize("where", ["input", "conv1 weight"])
    def test_nan_routes_like_argmax(self, where):
        # A NaN conv1 weight makes every pooling window of its channel NaN; a
        # pool that routed only to an element equal to the max would give that
        # channel a zero gradient instead of a NaN one.
        arch = stride2_stack()
        params = ref_cast(nn.init_model(arch, seed=4), self.dtype)
        x, y = tied_inputs(arch, 3, seed=1)
        if where == "input":
            x[1, 0, 5, 6] = np.nan
        else:
            params.entries[0].weight[2, 1, 0, 0] = np.nan
        got = nn.backward(arch, params, nn.Batch(x, y))
        assert not got.allfinite()
        for e, (gw, gb) in zip(got.entries, ref_backward(arch, params, nn.Batch(x, y))):
            assert np.array_equal(e.weight, gw, equal_nan=True), e.layer_id
            assert np.array_equal(e.bias, gb, equal_nan=True), e.layer_id

    def test_pool_routes_to_first_max_or_first_nan(self):
        windows = [np.array([[1.0, 1.0], [0.0, 1.0]]),        # three-way tie
                   np.array([[2.0, 5.0], [5.0, 3.0]]),        # tie at the max
                   np.array([[0.0, np.nan], [7.0, 1.0]]),     # NaN after a finite value
                   np.array([[np.nan, 4.0], [np.nan, 9.0]])]  # two NaNs
        # (1, 2, 8, 1), side by side
        x = np.concatenate(windows, axis=1)[None, :, :, None].astype(self.dtype)
        m = nn._maxpool(x, 2)
        dx = nn._maxpool_backward(np.ones(m.shape, self.dtype), x, m, 2)[0, :, :, 0]
        assert dx.dtype == self.dtype
        for n, win in enumerate(windows):
            want = np.zeros(4)
            want[np.argmax(win)] = 1.0
            assert np.array_equal(dx[:, 2 * n:2 * n + 2].ravel(), want), n


class TestGradientBytesFp32(TestGradientBytes):
    dtype = np.float32


class TestInferenceBytes:
    dtype = np.float64          # of the parameters, and so of every pass

    def test_lenet5_logits_at_eval_batch_512(self):
        # 300 examples in one 512 chunk: 30 conv tiles of 10
        arch = nn.lenet5()
        params = ref_cast(nn.init_model(arch, seed=4), self.dtype)
        x, y = tied_inputs(arch, 300, seed=0)
        assert same_bytes(nn._logits(arch, params, x), ref_logits(arch, params, x))
        assert nn.evaluate(arch, params, x, y, 512) == ref_evaluate(arch, params, x, y, 512)

    @pytest.mark.parametrize("n,batch_size", [
        (45, 512),        # example count not a multiple of the tile
        (45, 7),          # eval batch smaller than the tile
        (nn._TILE, 512),  # exactly one tile
        (1, 512),         # one tile: the helper gets none
        (11, 512),        # a full tile on the helper, one example on the caller
        (19, 512),        # two tiles, the caller's one short
        (20, 512),        # two full tiles
    ])
    def test_chunking_edge_cases(self, n, batch_size):
        arch = nn.lenet5()
        params = ref_cast(cr87(nn.init_model(arch, seed=2)), self.dtype)
        x, y = tied_inputs(arch, n, seed=n)
        for i in range(0, n, batch_size):
            chunk = x[i:i + batch_size]
            assert same_bytes(nn._logits(arch, params, chunk), ref_logits(arch, params, chunk))
        assert nn.evaluate(arch, params, x, y, batch_size) == \
            ref_evaluate(arch, params, x, y, batch_size)

    @pytest.mark.parametrize("n", [1, nn._TILE, 11, 20, 45])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_tile_edges_on_every_model(self, model, n):
        # a row split of stride2_stack's c2 GEMM (9 rows per example) changes
        # bytes on some BLAS kernels, and small_convnet's conv1 split on others
        make, prune = MODELS[model]
        arch = make()
        params = ref_cast(prune(nn.init_model(arch, seed=2)), self.dtype)
        x, y = tied_inputs(arch, n, seed=n)
        assert same_bytes(nn._logits(arch, params, x), ref_logits(arch, params, x))
        assert nn.evaluate(arch, params, x, y, 512) == ref_evaluate(arch, params, x, y, 512)

    @pytest.mark.parametrize("model", ["lenet5", "small_convnet"])
    def test_all_zero_input_ties_everywhere(self, model):
        make, _ = MODELS[model]
        arch = make()
        params = ref_cast(nn.init_model(arch, seed=4), self.dtype)
        x = np.zeros((40, *arch.input_shape))
        y = np.arange(40) % arch.num_classes
        assert same_bytes(nn._logits(arch, params, x), ref_logits(arch, params, x))
        assert nn.evaluate(arch, params, x, y, 16) == ref_evaluate(arch, params, x, y, 16)


class TestInferenceBytesFp32(TestInferenceBytes):
    dtype = np.float32


# -- the helper thread ---------------------------------------------------------

TIMEOUT_S = 60.0


def finishes(fn):
    """fn() on a daemon thread; fails, rather than hangs, if it deadlocks."""
    out = []

    def run():
        try:
            out.append((True, fn()))
        except BaseException as exc:          # re-raised on the test's thread
            out.append((False, exc))
    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(TIMEOUT_S)
    assert not t.is_alive(), f"not finished within {TIMEOUT_S} s"
    ok, value = out[0]
    if not ok:
        raise value
    return value


def lenet_case(batch_size, seed):
    arch = nn.lenet5()
    params = cr87(nn.init_model(arch, seed=seed))
    x, y = tied_inputs(arch, batch_size, seed=seed)
    return arch, params, nn.Batch(x, y)


def same_grads(got, want):
    return all(same_bytes(e.weight, gw) and same_bytes(e.bias, gb)
               for e, (gw, gb) in zip(got.entries, want))


class TestHelperThread:
    def test_one_helper_thread_off_the_caller(self):
        idents = {nn._offload(True, threading.get_ident)() for _ in range(5)}
        assert len(idents) == 1
        assert threading.get_ident() not in idents
        assert nn._helper[0] == os.getpid()

    def test_call_on_the_helper_runs_inline(self):
        helper = nn._offload(True, threading.get_ident)()
        nested = finishes(lambda: nn._offload(True, nn._offload, True, threading.get_ident)()())
        assert nested == helper
        arch, params, batch = lenet_case(10, seed=3)
        got = finishes(lambda: nn._offload(True, nn.backward, arch, params, batch)())
        assert same_grads(got, ref_backward(arch, params, batch))
        x = batch.inputs
        logits = finishes(lambda: nn._offload(True, nn._logits, arch, params, x)())
        assert same_bytes(logits, ref_logits(arch, params, x))

    def test_exception_reaches_the_caller_and_the_helper_lives_on(self):
        def boom():
            raise ZeroDivisionError("raised on the helper")
        wait = nn._offload(True, boom)
        with pytest.raises(ZeroDivisionError, match="raised on the helper"):
            finishes(wait)
        assert finishes(nn._offload(True, lambda: 7)) == 7
        arch, params, batch = lenet_case(10, seed=5)
        got = finishes(lambda: nn.backward(arch, params, batch))
        assert same_grads(got, ref_backward(arch, params, batch))

    def test_two_threads_at_once_get_reference_bytes(self):
        cases = [lenet_case(b, seed=s) for b, s in ((10, 1), (2, 2), (10, 3), (1, 4))]
        wants = [(ref_backward(*c), ref_logits(c[0], c[1], c[2].inputs),
                  ref_evaluate(c[0], c[1], c[2].inputs, c[2].labels, 7)) for c in cases]
        errors = []

        def worker(order):
            for _ in range(3):
                for i in order:
                    arch, params, batch = cases[i]
                    grads_want, logits_want, acc_want = wants[i]
                    if not same_grads(nn.backward(arch, params, batch), grads_want):
                        errors.append(f"backward of case {i}")
                    if not same_bytes(nn._logits(arch, params, batch.inputs), logits_want):
                        errors.append(f"logits of case {i}")
                    if nn.evaluate(arch, params, batch.inputs, batch.labels, 7) != acc_want:
                        errors.append(f"evaluate of case {i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(order,), daemon=True)
                       for order in ((0, 1, 2, 3), (3, 2, 1, 0))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_child_forked_after_first_use_gets_a_live_helper(self):
        arch, params, batch = lenet_case(10, seed=6)
        want = ref_backward(arch, params, batch)
        assert same_grads(nn.backward(arch, params, batch), want)   # the helper is up
        parent_helper = nn._helper

        def child():
            ok = same_grads(nn.backward(arch, params, batch), want) and \
                nn._helper is not parent_helper and nn._helper[0] == os.getpid()
            sys.exit(0 if ok else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail(f"forked child did not finish backward within {TIMEOUT_S} s")
        assert proc.exitcode == 0
        assert nn._helper is parent_helper

    def test_runs_add_at_most_one_thread(self):
        cfg = federation.ExperimentConfig(
            arch="small_convnet", arch_params={"in_ch": 1, "side": 16, "num_classes": 3},
            dataset="synthetic-images",
            dataset_params={"num_train": 60, "num_test": 25, "channels": 1, "side": 16,
                            "num_classes": 3},
            num_clients=3, clients_per_round=2, local_epochs=1, batch_size=10,
            warmup_rounds=1, pruning_rounds=1, admm_stage_rounds=1,
            sparsity=SparsityConfig(keep={"fc1": 0.5}), seed=2)
        before = threading.active_count()
        federation.run_experiment(cfg)
        federation.run_experiment(cfg)
        assert threading.active_count() <= before + 1


# -- the conv/pool stack split across the helper ------------------------------

def record_parts(monkeypatch, before=None):
    """Record (thread ident, examples) of every ``_stack_part`` call, after
    calling before(thread ident) when given."""
    calls = []
    real = nn._stack_part

    def part(stack, x, *rest):
        if before is not None:
            before(threading.get_ident())
        real(stack, x, *rest)
        calls.append((threading.get_ident(), len(x)))
    monkeypatch.setattr(nn, "_stack_part", part)
    return calls


class TestConvStackSplit:
    @pytest.mark.parametrize("batch_size,parts", [(10, (5, 5)), (3, (1, 2)), (11, (5, 6))])
    def test_first_part_on_the_helper(self, monkeypatch, batch_size, parts):
        arch, params, batch = lenet_case(batch_size, seed=7)
        helper = nn._offload(True, threading.get_ident)()
        calls = record_parts(monkeypatch)
        nn.backward(arch, params, batch)
        assert sorted(calls) == sorted([(helper, parts[0]), (threading.get_ident(), parts[1])])

    def test_batch_of_one_runs_unsplit_on_the_caller(self, monkeypatch):
        arch, params, batch = lenet_case(1, seed=7)
        calls = record_parts(monkeypatch)
        got = nn.backward(arch, params, batch)
        assert calls == [(threading.get_ident(), 1)]
        assert same_grads(got, ref_backward(arch, params, batch))

    @pytest.mark.parametrize("fail", [False, True])
    def test_never_returns_while_the_helpers_part_runs(self, monkeypatch, fail):
        arch, params, batch = lenet_case(10, seed=8)
        helper = nn._offload(True, threading.get_ident)()

        def before(ident):
            if ident == helper:
                time.sleep(0.05)
            elif fail:
                raise ZeroDivisionError("the caller's part fails")
        calls = record_parts(monkeypatch, before)
        if fail:
            with pytest.raises(ZeroDivisionError):
                finishes(lambda: nn.backward(arch, params, batch))
        else:
            finishes(lambda: nn.backward(arch, params, batch))
        assert calls[-1] == (helper, 5)         # the helper's part finished last
        assert len(calls) == (1 if fail else 2)

    def test_eval_runs_in_tiles_on_every_kernel(self):
        # 300 LeNet-5 examples at fp32 take about 78 MB of conv/pool arrays
        # at once, and tiles of 10 through one buffer set per part about 6 MB
        arch = nn.lenet5()
        params = ref_cast(nn.init_model(arch, seed=4), np.float32)
        x, y = tied_inputs(arch, 300, seed=0)
        nn.evaluate(arch, params, x, y, 512)        # the helper and the caches are up
        tracemalloc.start()
        try:
            nn.evaluate(arch, params, x, y, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, f"{peak / 2**20:.1f} MB"


# -- the per-layer hook of backward --------------------------------------------

HOOK_MODELS = {"lenet5": nn.lenet5, "mlp": nn.mlp}


def hook_case(model, batch_size, seed):
    arch = HOOK_MODELS[model]()
    params = nn.init_model(arch, seed=seed)
    x, y = tied_inputs(arch, batch_size, seed=seed)
    return arch, params, nn.Batch(x, y)


class TestBackwardHook:
    @pytest.mark.parametrize("model", sorted(HOOK_MODELS))
    def test_once_per_layer_last_first_on_the_helper(self, model):
        arch, params, batch = hook_case(model, 10, seed=1)
        helper = nn._offload(True, threading.get_ident)()
        calls = []

        def then(lid, dw, db):
            calls.append((lid, dw.copy(), db.copy(), threading.get_ident()))

        got = finishes(lambda: nn.backward(arch, params, batch, then=then))
        assert [c[0] for c in calls] == [l.name for l in reversed(arch.param_layers())]
        for lid, dw, db, ident in calls:
            assert same_bytes(dw, got[lid].weight) and same_bytes(db, got[lid].bias), lid
            assert ident == helper, lid
        assert same_grads(got, ref_backward(arch, params, batch))

    @pytest.mark.parametrize("batch_size", [1, 2, 10])
    @pytest.mark.parametrize("model", sorted(HOOK_MODELS))
    def test_hook_writing_its_layer_leaves_every_gradient(self, model, batch_size):
        # each hook poisons the weights it was handed over; a hook queued
        # before the pass's last read of them would poison the gradients below
        arch, params, batch = hook_case(model, batch_size, seed=batch_size)
        want = ref_backward(arch, params, batch)
        for _ in range(5):
            work = params.map(lambda lid, w, b: (w.copy(), b.copy()))

            def then(lid, dw, db):
                work[lid].weight.fill(np.nan)
                work[lid].bias.fill(np.nan)

            got = finishes(lambda: nn.backward(arch, work, batch, then=then))
            assert same_grads(got, want)
            assert all(np.isnan(e.weight).all() for e in work.entries)

    @pytest.mark.parametrize("model", sorted(HOOK_MODELS))
    def test_hook_exception_reaches_the_caller(self, model):
        arch, params, batch = hook_case(model, 10, seed=2)
        layers = [l.name for l in arch.param_layers()]
        ran = []

        def then(lid, dw, db):
            ran.append(lid)
            if lid == layers[-1]:
                raise ZeroDivisionError(f"raised in the hook of {lid}")

        with pytest.raises(ZeroDivisionError, match=layers[-1]):
            finishes(lambda: nn.backward(arch, params, batch, then=then))
        assert ran == layers[::-1]          # the hooks queued behind it still ran
        want = ref_backward(arch, params, batch)
        assert same_grads(finishes(lambda: nn.backward(arch, params, batch)), want)
        ran.clear()
        got = finishes(lambda: nn.backward(arch, params, batch,
                                           then=lambda lid, dw, db: ran.append(lid)))
        assert same_grads(got, want) and ran == layers[::-1]

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("model", sorted(HOOK_MODELS))
    def test_never_returns_while_a_hook_runs(self, model, fail):
        arch, params, batch = hook_case(model, 10, seed=3)
        layers = [l.name for l in arch.param_layers()]
        running, done = [], []

        def then(lid, dw, db):
            running.append(lid)
            if fail and lid == layers[-1]:
                raise ZeroDivisionError("the first hook fails")
            time.sleep(0.02)
            done.append(lid)
            running.remove(lid)

        if fail:
            with pytest.raises(ZeroDivisionError):
                finishes(lambda: nn.backward(arch, params, batch, then=then))
        else:
            finishes(lambda: nn.backward(arch, params, batch, then=then))
        assert running == ([layers[-1]] if fail else [])
        assert done == layers[::-1][1 if fail else 0:]
