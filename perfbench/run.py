"""Benchmark of whole fedprune federated runs, end to end and per module.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload (see workloads.py) repeats one ``federation.run_experiment``
on inputs generated from ``--seed`` for about ``--seconds`` seconds, at least
twice, and checks every run against an oracle computed apart from the
program.  With ``--trace 0`` the runs are untraced and the end-to-end metrics
are printed.  With ``--trace 1`` untraced and traced runs alternate; the
traced ones wrap the program's modules (tracing.py) and give the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count client uploads and enclave rejections.  A result file with the
run environment, and the spans of traced runs, go to perfbench/results/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is imported: one thread keeps the figures
# steady on a small shared host, and the count is recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import math
import platform
import resource
import socket
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import (CR87_KEEP, LENET5, NUM_CLASSES, NUM_TEST, RHO, WORKLOADS,
                       blob_size, make_dataset, upload_size)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# (end-to-end metric, unit), as listed in BENCHMARK.json
E2E_METRICS = (("run_s", "s"), ("round_s", "s"), ("samples_per_s", "1/s"),
               ("setup_s", "s"), ("upload_bytes", "B"), ("download_bytes", "B"),
               ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 12      # set-up-only samples per measurement, beside the full runs


def import_fedprune():
    src = ROOT / "src"
    if not (src / "fedprune" / "__init__.py").is_file():
        sys.exit(f"perfbench: fedprune sources not found under {src}")
    sys.path.insert(0, str(src))
    import fedprune
    from fedprune import codec, datasets, enclave, federation, nn, pruning, secure  # noqa: F401
    return fedprune


class SetupDone(Exception):
    """Raised at the first broadcast of a set-up-only sample."""


class Probe:
    """The only hooks of an untraced run, each once per round: when the
    first broadcast starts, whether each published model is finite, and the
    size and fate of every upload the enclave loads.  With ``setup_only``
    the run stops at its first broadcast."""

    def __init__(self, wl, clock, setup_only: bool = False):
        self.wl = wl
        self.clock = clock
        self.setup_only = setup_only
        self.first_publish: float | None = None
        self.all_finite = True
        self.attempted = 0
        self.rejected = 0
        self.failures: list[str] = []
        self._saved: list[tuple] = []

    def install(self, fp):
        publish, load = fp.enclave.publish_model, fp.enclave.enclave_load

        def publish_model(params, ctx):
            if self.first_publish is None:
                self.first_publish = self.clock()
            if self.setup_only:
                raise SetupDone
            self.all_finite &= finite(params)
            return publish(params, ctx)

        def enclave_load(encs, ctx, example_counts):
            for enc in encs:
                size = len(enc.header()) + len(enc.ciphertext)
                want = upload_size(self.wl, enc.round)
                if size != want:
                    self.failures.append(f"round {enc.round} client {enc.client_id}: "
                                         f"upload of {size} B, expected {want} B")
            agg, rejections = load(encs, ctx, example_counts)
            self.attempted += len(encs)
            self.rejected += len(rejections)
            return agg, rejections

        self._saved += [tracing.swap(fp.enclave, "publish_model", publish_model),
                        tracing.swap(fp.enclave, "enclave_load", enclave_load)]

    def restore(self):
        tracing.unswap(self._saved)


def finite(params) -> bool:
    return all(np.isfinite(e.weight).all() and np.isfinite(e.bias).all()
               for e in params.entries)


def check_run(wl, result, rows, probe) -> list[str]:
    """Compare one run with the oracle of workloads.py."""
    fails = list(probe.failures)
    cpr = wl.clients_per_round
    if len(rows) != wl.rounds:
        fails.append(f"{len(rows)} rounds reported, expected {wl.rounds}")
    for rm in rows:
        if rm.bytes_down != cpr * blob_size(None):
            fails.append(f"round {rm.round_index}: bytes_down {rm.bytes_down}, "
                         f"expected {cpr} x {blob_size(None)}")
        if rm.bytes_up != cpr * upload_size(wl, rm.round_index):
            fails.append(f"round {rm.round_index}: bytes_up {rm.bytes_up}, "
                         f"expected {cpr} x {upload_size(wl, rm.round_index)}")
    if probe.attempted != wl.uploads or probe.rejected:
        fails.append(f"{probe.rejected} of {probe.attempted} uploads rejected, "
                     f"{wl.uploads} attempted expected")
    if not (probe.all_finite and finite(result.global_params)):
        fails.append("model not finite after some round")
    want = wl.final_nnz()
    have = {e.layer_id: int(np.count_nonzero(e.weight)) for e in result.global_params.entries}
    if have != want:
        fails.append(f"final non-zeros {have}, expected {want}")
    total = sum(math.prod(shape) for _lid, shape, _b in LENET5)
    if result.compression_rate != total / sum(want.values()):
        fails.append(f"compression rate {result.compression_rate}, "
                     f"expected {total / sum(want.values())}")
    if wl.min_accuracy is not None and not result.final_accuracy >= wl.min_accuracy:
        fails.append(f"final accuracy {result.final_accuracy} below {wl.min_accuracy}")
    return fails


def fingerprint(result, rows) -> str:
    """Digest of everything a fixed seed must reproduce exactly."""
    h = hashlib.sha256()
    h.update(repr([(rm.bytes_up, rm.bytes_down, rm.accuracy) for rm in rows]).encode())
    h.update(repr((result.final_accuracy, result.compression_rate)).encode())
    for e in result.global_params.entries:
        h.update(e.weight.tobytes())
        h.update(e.bias.tobytes())
    return h.hexdigest()


def run_once(fp, wl, cfg, dataset, traced: bool) -> dict:
    tracer = tracing.Tracer() if traced else None
    clock = tracer.now if traced else time.perf_counter
    probe = Probe(wl, clock)
    rows, ends = [], []

    def progress(rm):
        ends.append(clock())
        rows.append(rm)

    if traced:
        tracer.install(fp)
    probe.install(fp)                  # outermost, so the tracer wraps the originals
    aborted = None
    try:
        t0 = clock()
        try:
            result = fp.federation.run_experiment(cfg, dataset, progress=progress)
        except fp.federation.ExperimentAborted as exc:
            aborted = exc
        run_s = clock() - t0
    finally:
        probe.restore()
        if traced:
            tracer.restore()
    setup_end = probe.first_publish if probe.first_publish is not None else t0 + run_s
    starts = [setup_end] + ends[:-1]
    rec = {
        "traced": traced,
        "aborted": aborted is not None,
        "run_s": run_s,
        "setup_s": setup_end - t0,
        "round_s": statistics.fmean(b - a for a, b in zip(starts, ends)) if ends else run_s,
        "accounted_s": sum(rm.total_s for rm in rows),
        "upload_bytes": sum(rm.bytes_up for rm in rows),
        "download_bytes": sum(rm.bytes_down for rm in rows),
        "attempted": probe.attempted,
        "rejected": probe.rejected,
    }
    if aborted is None:
        rec.update(final_accuracy=result.final_accuracy,
                   compression_rate=result.compression_rate,
                   fingerprint=fingerprint(result, rows),
                   failures=check_run(wl, result, rows, probe))
    else:
        rec.update(final_accuracy=float("nan"), compression_rate=float("nan"),
                   fingerprint="aborted",
                   failures=[f"run aborted: {aborted.cause!r}"] + probe.failures)
    if traced:
        rec["failures"] += tracer.failures + tracer.nesting_errors()
        layers = tracer.layer_metrics()
        layers["trace.run_s"] = tracer.root_seconds()
        covered = sum(layers[m] for m in tracing.SELF_TIME_METRICS)
        if abs(covered - layers["trace.run_s"]) > 1e-6:
            rec["failures"].append(f"self times sum to {covered:.6f} s, traced run "
                                   f"took {layers['trace.run_s']:.6f} s")
        if abs(layers["trace.run_s"] - run_s) > 1e-3:
            rec["failures"].append(f"traced root span {layers['trace.run_s']:.4f} s "
                                   f"differs from the run's {run_s:.4f} s")
        if layers.get("nn.backward_examples") != wl.samples:
            rec["failures"].append(f"{layers.get('nn.backward_examples')} examples "
                                   f"trained, expected {wl.samples}")
        if layers["nn.eval_examples"] != (wl.rounds + 1) * NUM_TEST:
            rec["failures"].append(f"{layers['nn.eval_examples']} examples evaluated, "
                                   f"expected {(wl.rounds + 1) * NUM_TEST}")
        rec["layers"] = layers
        rec["spans"] = tracer.spans
    return rec


def measure(fp, wl, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Repeat the workload for about ``seconds``: at least two runs, or with
    tracing on, at least two pairs of an untraced and a traced run."""
    train_x, train_y, test_x, test_y = make_dataset(seed)
    dataset = fp.datasets.Dataset("perfbench-images", train_x, train_y, test_x, test_y,
                                  NUM_CLASSES)
    sparsity = None if wl.mode == "dense" else fp.pruning.SparsityConfig(
        keep=dict(CR87_KEEP), rho=RHO)
    cfg = fp.federation.ExperimentConfig(sparsity=sparsity, **wl.config_kwargs(seed))
    runs: list[dict] = []
    min_runs = 4 if trace else 2
    t0 = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            runs.append(run_once(fp, wl, cfg, dataset, traced))
        if runs[-1]["aborted"]:
            return runs                # a broken program fails the same way each time
        elapsed = time.perf_counter() - t0
        per_pass = elapsed * (2 if trace else 1) / len(runs)
        if len(runs) >= min_runs and elapsed + per_pass > seconds:
            break
    if not trace:
        runs[0]["setup_samples_s"] = [setup_once(fp, wl, cfg, dataset)
                                      for _ in range(SETUP_SAMPLES)]
    return runs


def setup_once(fp, wl, cfg, dataset) -> float:
    """Seconds from the call of run_experiment to its first broadcast."""
    probe = Probe(wl, time.perf_counter, setup_only=True)
    probe.install(fp)
    try:
        t0 = time.perf_counter()
        fp.federation.run_experiment(cfg, dataset)
    except Exception as exc:      # run_experiment wraps errors in ExperimentAborted
        if not isinstance(exc, SetupDone) and not isinstance(exc.__cause__, SetupDone):
            raise
    finally:
        probe.restore()
    if probe.first_publish is None:
        raise RuntimeError("run_experiment returned without a broadcast")
    return probe.first_publish - t0


def e2e_metrics(wl, runs: list[dict]) -> dict[str, float]:
    plain = [r for r in runs if not r["traced"]]
    return {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "round_s": statistics.median(r["round_s"] for r in plain),
        "samples_per_s": statistics.median(
            wl.samples / (r["run_s"] - r["setup_s"]) if r["run_s"] > r["setup_s"] else 0.0
            for r in plain),
        "setup_s": statistics.median([r["setup_s"] for r in plain]
                                     + plain[0].get("setup_samples_s", [])),
        "upload_bytes": plain[0]["upload_bytes"],
        "download_bytes": plain[0]["download_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_metrics(runs: list[dict]) -> dict[str, float]:
    """Means over the traced runs; the untimed and overhead figures compare
    them with the untraced runs."""
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    out = {name: statistics.fmean(r["layers"][name] for r in traced)
           for name, _unit in tracing.LAYER_METRICS}
    out["federation.untimed_s"] = statistics.fmean(r["run_s"] - r["accounted_s"] for r in plain)
    out["trace.overhead_s"] = out["trace.run_s"] - statistics.fmean(r["run_s"] for r in plain)
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(BLAS_THREADS),
            "cpu_count": os.cpu_count(), "host": socket.gethostname()}


def write_results(stem: str, summary: dict, runs: list[dict]) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{stem}.json"
    summary = {**summary, "runs": [{k: v for k, v in r.items() if k != "spans"}
                                   for r in runs]}
    path.write_text(json.dumps(summary, indent=1) + "\n")
    traced = [r for r in runs if r["traced"]]
    if traced:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as f:
            for i, r in enumerate(traced):
                for name, start, end, parent in r["spans"]:
                    f.write(json.dumps({"run": i, "name": name, "start": start,
                                        "end": end, "parent": parent}) + "\n")
    return path


def run_workload(args) -> int:
    fp = import_fedprune()
    wl = WORKLOADS[args.workload]
    runs = measure(fp, wl, args.seed, args.seconds, bool(args.trace))
    failures = sorted({f for r in runs for f in r["failures"]})
    prints = {r["fingerprint"] for r in runs}
    if len(prints) != 1:
        failures.append(f"{len(runs)} runs of one seed gave {len(prints)} different "
                        "results")
    if args.trace:
        values = traced_metrics(runs)
        units = dict(tracing.LAYER_METRICS)
    else:
        values = e2e_metrics(wl, runs)
        units = dict(E2E_METRICS)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["rejected"] for r in runs)
    plain = [r for r in runs if not r["traced"]]

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced + {len(runs) - len(plain)} traced runs")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit}")
    print(f"  {'final_accuracy':32s} {runs[0]['final_accuracy']:14.6g} fraction")
    print(f"  uploads attempted {attempted}, rejected {failed}")
    print("  checks: " + ("all passed" if not failures else
                          "FAILED\n    " + "\n    ".join(failures)))
    summary = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(),
               "correct": not failures, "failures": failures,
               "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    path = write_results(f"{wl.name}-seed{args.seed}-trace{args.trace}", summary, runs)
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    import_fedprune()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time per workload; at least two runs are made")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
