"""Golden fixture for the report output of configs/demo_synthetic.cfg.

golden_demo_synthetic.json holds the non-timing rounds.csv columns and the
summary's accuracy, compression-rate, volume and saving lines of the demo
config in admm and masked modes with pruning_rounds=6.  It was recorded
before the byte ledger and the saving computations were folded into
RoundMetrics; any difference is a change of behaviour, not of bookkeeping.
"""

import csv
import json
from pathlib import Path

import pytest

from fedprune import report
from fedprune.config import load_config
from fedprune.federation import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("golden_demo_synthetic.json")).read_text())


@pytest.mark.parametrize("mode", ["admm", "masked"])
def test_demo_report_matches_golden(mode, tmp_path):
    cfg = load_config(ROOT / "configs" / "demo_synthetic.cfg", mode=mode,
                      pruning_rounds=6)
    paths = report.write_report(run_experiment(cfg), tmp_path)
    with open(paths["rounds"]) as f:
        rows = [[r[c] for c in GOLDEN["columns"]] for r in csv.DictReader(f)]
    assert rows == GOLDEN[mode]["rows"]
    summary = dict(line.split(" = ", 1)
                   for line in paths["summary"].read_text().splitlines()
                   if line.split(" = ", 1)[0] in GOLDEN[mode]["summary"])
    assert summary == GOLDEN[mode]["summary"]
