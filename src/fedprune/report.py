"""CSV and plaintext reporting of per-round metrics and run summaries."""

from __future__ import annotations

import csv
import dataclasses
from pathlib import Path

from .federation import (ExperimentConfig, ExperimentResult, NetworkSimulator,
                         RoundMetrics, pruning_phase_bytes, saving_percent)

_TIMING_COLUMNS = (*RoundMetrics.TIME_FIELDS, "total_s")
CSV_COLUMNS = (
    "round", "phase", "accuracy", "keep_fraction",
    "bytes_up", "bytes_down", "dense_bytes_up", "dense_bytes_down",
    "trusted_peak_bytes", "rejected", *_TIMING_COLUMNS,
)


def write_report(result: ExperimentResult, out_dir: str | Path,
                 partial: bool = False) -> dict[str, Path]:
    """Write rounds.csv and summary.txt."""
    if not result.metrics:
        raise ValueError("no metrics to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "rounds.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_COLUMNS)
        w.writeheader()
        w.writerows({
            "round": m.round_index, "phase": m.phase,
            "accuracy": f"{m.accuracy:.6f}",
            "keep_fraction": f"{m.keep_fraction:.6f}",
            "bytes_up": m.bytes_up, "bytes_down": m.bytes_down,
            "dense_bytes_up": m.dense_bytes_up, "dense_bytes_down": m.bytes_down,
            "trusted_peak_bytes": m.trusted_peak_bytes, "rejected": len(m.rejections),
            **{c: f"{getattr(m, c):.6f}" for c in _TIMING_COLUMNS},
        } for m in result.metrics)

    cfg = result.config
    total_elapsed = sum(m.total_s for m in result.metrics)
    actual, dense = pruning_phase_bytes(result.metrics)
    saving = saving_percent(result.metrics)
    extra = NetworkSimulator(cfg.bandwidth_mbps).transmit(dense - actual)
    speedup = (f"{(total_elapsed + extra) / total_elapsed:.2f}x" if cfg.bandwidth_mbps
               else "n/a (no bandwidth model)")

    lines = [
        "fedprune experiment summary",
        "===========================",
        f"status: {'PARTIAL (aborted run)' if partial else 'complete'}",
        "",
        "[config]",
    ]
    for f_ in dataclasses.fields(ExperimentConfig):
        lines.append(f"{f_.name} = {getattr(cfg, f_.name)}")
    lines += [
        "",
        "[summary]",
        f"rounds_completed = {len(result.metrics)}",
        f"final_accuracy = {result.final_accuracy:.4f}",
        f"compression_rate = {result.compression_rate:.2f}",
        f"pruning_phase_volume_bytes = {actual}",
        f"pruning_phase_volume_dense_equivalent_bytes = {dense}",
        f"communication_saving_percent = {saving:.2f}",
        f"total_elapsed_s = {total_elapsed:.3f}",
        f"finalize_s = {result.finalize_s:.3f}",
        f"speedup_vs_dense_baseline = {speedup}",
    ]
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    return {"rounds": csv_path, "summary": summary_path}
