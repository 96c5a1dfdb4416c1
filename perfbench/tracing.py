"""Span tracing of fedprune from outside the program.

``Tracer.install`` replaces the public functions of the traced modules, and
the few methods on the round's path, with wrappers that record one span
(name, start, end, parent) per call in memory.  Some wrappers also keep
counts or run a property check on the call's output.  Checks run on a
paused clock, so they add to no span and to no run time.  Per-layer self
times are derived from the spans after the run.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("nn", "pruning", "codec", "secure", "enclave", "federation")

# span name -> per-layer self-time metric; other spans of module m go to m.rest_s
SELF_TIME = {
    "nn.backward": "nn.backward_s",
    "nn.sgd_step": "nn.sgd_step_s",
    "nn.evaluate": "nn.evaluate_s",
    "nn.predict": "nn.evaluate_s",
    "pruning.euclidean_project": "pruning.project_s",
    "pruning.admm_reg_gradient": "pruning.admm_reg_s",
    "pruning.apply_mask": "pruning.mask_s",
    "pruning.mask_gradient": "pruning.mask_s",
    "codec.encode_params": "codec.encode_s",
    "codec.dense_encode": "codec.encode_s",
    "codec.csr_encode": "codec.encode_s",
    "codec.decode_csr": "codec.decode_csr_s",
    "codec.csr_decode": "codec.decode_csr_s",
    "codec.decode_dense": "codec.decode_dense_s",
    "codec.dense_decode": "codec.decode_dense_s",
    "secure.attest_and_exchange": "secure.attest_s",
    "secure.encrypt_update": "secure.seal_s",
    "secure.decrypt_update": "secure.open_s",
    "enclave.enclave_load": "enclave.load_self_s",
    "enclave.fedavg": "enclave.fedavg_s",
    "enclave.publish_model": "enclave.publish_s",
    "federation.client_round": "federation.client_round_self_s",
    "federation.transmit": "federation.transmit_s",
    "federation.run_experiment": "federation.other_s",
}

# Self-time metrics: together they partition the traced run's wall time.
SELF_TIME_METRICS = sorted(set(SELF_TIME.values()) | {f"{m}.rest_s" for m in TRACED_MODULES})

# (per-layer metric, unit) in report order
LAYER_METRICS = (
    ("nn.backward_s", "s"), ("nn.backward_calls", "count"), ("nn.backward_ms", "ms"),
    ("nn.sgd_step_s", "s"), ("nn.evaluate_s", "s"), ("nn.eval_examples", "count"),
    ("nn.rest_s", "s"),
    ("pruning.project_s", "s"), ("pruning.project_calls", "count"),
    ("pruning.project_ms", "ms"), ("pruning.admm_reg_s", "s"), ("pruning.mask_s", "s"),
    ("pruning.rest_s", "s"),
    ("codec.encode_s", "s"), ("codec.decode_csr_s", "s"), ("codec.decode_csr_ms", "ms"),
    ("codec.decode_dense_s", "s"), ("codec.csr_payload_bytes", "B"),
    ("codec.dense_payload_bytes", "B"), ("codec.rest_s", "s"),
    ("secure.attest_s", "s"), ("secure.seal_s", "s"), ("secure.open_s", "s"),
    ("secure.sealed_bytes", "B"), ("secure.rest_s", "s"),
    ("enclave.load_self_s", "s"), ("enclave.fedavg_s", "s"), ("enclave.publish_s", "s"),
    ("enclave.ecalls", "count"), ("enclave.rest_s", "s"),
    ("federation.client_round_self_s", "s"), ("federation.transmit_s", "s"),
    ("federation.other_s", "s"), ("federation.untimed_s", "s"), ("federation.rest_s", "s"),
    ("trace.run_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"),
)

# (span name, per-layer metric) reported as the median duration of one call
MEDIAN_MS = (("nn.backward", "nn.backward_ms"),
             ("pruning.euclidean_project", "pruning.project_ms"),
             ("codec.decode_csr", "codec.decode_csr_ms"))


def self_time_metric(span_name: str) -> str:
    return SELF_TIME.get(span_name, span_name.split(".")[0] + ".rest_s")


def swap(owner, attr: str, new) -> tuple:
    """Set ``owner.attr`` to ``new``; returns what undoes it."""
    saved = (owner, attr, vars(owner)[attr])
    setattr(owner, attr, new)
    return saved


def unswap(saved: list[tuple]) -> None:
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
    saved.clear()


class Tracer:
    """Records spans and counts of one federated run."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._saved: list[tuple] = []

    def now(self) -> float:
        """perf_counter minus the time spent in checks."""
        return time.perf_counter() - self._paused

    def _wrap(self, name: str, fn, after):
        tracer = self
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.now()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = tracer.now()
                tracer._stack.pop()
            if after is not None:
                t0 = time.perf_counter()
                after(tracer, span, sig.bind(*args, **kwargs).arguments, out)
                tracer._paused += time.perf_counter() - t0
            return out
        return traced

    def install(self, fp) -> None:
        """Wrap every public function of the traced fedprune modules and the
        seal, open and transmit methods; ``fp`` is the fedprune package."""
        targets = []
        for mod_name in TRACED_MODULES:
            mod = getattr(fp, mod_name)
            targets += [(mod, attr, f"{mod_name}.{attr}") for attr, obj in vars(mod).items()
                        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")]
        targets += [(fp.secure.ClientChannel, "encrypt_update", "secure.encrypt_update"),
                    (fp.secure.KeyManager, "decrypt_update", "secure.decrypt_update"),
                    (fp.federation.NetworkSimulator, "transmit", "federation.transmit")]
        for owner, attr, name in targets:
            new = self._wrap(name, vars(owner)[attr], AFTER.get(name))
            self._saved.append(swap(owner, attr, new))

    def restore(self) -> None:
        unswap(self._saved)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed duration not covered by its child spans."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run, all but the run-level trace.* ones."""
        out = {name: 0.0 for name, _unit in LAYER_METRICS}
        for name, secs in self.self_times().items():
            out[self_time_metric(name)] += secs
        durations = defaultdict(list)
        for name, start, end, _parent in self.spans:
            durations[name].append(end - start)
        for span_name, metric in MEDIAN_MS:
            if durations[span_name]:
                out[metric] = 1e3 * statistics.median(durations[span_name])
        out["nn.backward_calls"] = len(durations["nn.backward"])
        out["pruning.project_calls"] = len(durations["pruning.euclidean_project"])
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        return out

    def nesting_errors(self) -> list[str]:
        errs = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end < start:
                errs.append(f"span {i} {name} ends before it starts")
            elif parent >= 0:
                _pn, pstart, pend, _pp = self.spans[parent]
                if start < pstart or end > pend:
                    errs.append(f"span {i} {name} outside its parent {self.spans[parent][0]}")
        return errs


# -- after-call hooks: counts and property checks ----------------------------

def _count(metric, size):
    def after(tracer, span, call, out):
        tracer.counts[metric] += size(call, out)
    return after


def _name_decode(tracer, span, call, out):
    span[0] = "codec.decode_" + out[1]          # decode_params returns (params, format)


def _check_projection(tracer, span, call, out):
    """Top-k by magnitude: min(n_keep, nnz(t)) entries kept, each copied
    unchanged, and none smaller in magnitude than any dropped entry."""
    t, n_keep = np.asarray(call["t"]), int(call["n_keep"])
    kept = out != 0
    want = min(n_keep, int(np.count_nonzero(t)))
    if out.shape != t.shape or int(kept.sum()) != want:
        tracer.failures.append(f"euclidean_project kept {int(kept.sum())} of "
                               f"{t.size}, expected {want}")
    elif not np.array_equal(out[kept], t[kept]):
        tracer.failures.append("euclidean_project changed a kept value")
    elif kept.any() and not kept.all() and \
            np.abs(t[kept]).min() < np.abs(t[~kept]).max():
        tracer.failures.append("euclidean_project dropped a larger magnitude than it kept")


def _check_fedavg(tracer, span, call, out):
    """Example-count-weighted mean summed in ascending client-id order,
    compared bit for bit."""
    recs = sorted(call["agg"].records, key=lambda r: r.client_id)
    total = float(sum(r.example_count for r in recs))
    for i, got in enumerate(out.entries):
        w = np.zeros_like(recs[0].update.params.entries[i].weight)
        b = np.zeros_like(recs[0].update.params.entries[i].bias)
        for r in recs:
            layer = r.update.params.entries[i]
            w += (r.example_count / total) * layer.weight
            b += (r.example_count / total) * layer.bias
        for want, have in ((w, got.weight), (b, got.bias)):
            if want.dtype != have.dtype or want.shape != have.shape or \
                    want.tobytes() != have.tobytes():
                tracer.failures.append(f"fedavg layer {got.layer_id} differs from "
                                       "the weighted mean")
                return


AFTER = {
    "nn.backward": _count("nn.backward_examples", lambda c, o: len(c["batch"].labels)),
    "nn.evaluate": _count("nn.eval_examples", lambda c, o: len(c["labels"])),
    "pruning.euclidean_project": _check_projection,
    "codec.decode_params": _name_decode,
    "codec.csr_encode": _count("codec.csr_payload_bytes", lambda c, o: len(o)),
    "codec.dense_encode": _count("codec.dense_payload_bytes", lambda c, o: len(o)),
    "secure.encrypt_update": _count(
        "secure.sealed_bytes", lambda c, o: len(o.header()) + len(o.ciphertext)),
    "enclave.enclave_load": _count("enclave.ecalls", lambda c, o: len(c["encs"])),
    "enclave.fedavg": _check_fedavg,
}
