import configparser
import csv
import io
import typing
from pathlib import Path

import pytest

from fedprune import report
from fedprune.cli import main
from fedprune.config import ConfigError, load_config, validate_config
from fedprune.federation import (PRUNING_PHASES, ExperimentConfig, pruning_phase_bytes,
                                 run_experiment, saving_percent)
from fedprune.pruning import SparsityConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CFG_TEXT = """\
[model]
arch = mlp
dims = 10, 8, 3

[data]
dataset = synthetic
num_train = 300
num_test = 90
num_features = 10
num_classes = 3

[federation]
num_clients = 6
clients_per_round = 3
local_epochs = 1
batch_size = 10
warmup_rounds = 2
pruning_rounds = 6
admm_stage_rounds = 1
mode = admm
seed = 3

[pruning]
rho = 0.001
fc1 = 0.25
fc2 = 0.5
"""


# small_convnet on 16x16 single-channel images; validates as it is
CONVNET_TEXT = """\
[model]
arch = small_convnet
in_ch = 1
side = 16
num_classes = 3

[data]
dataset = synthetic-images
num_train = 60
num_test = 20
channels = 1
side = 16
num_classes = 3
spread = 1

[federation]
num_clients = 3
clients_per_round = 3
mode = dense
warmup_rounds = 0
pruning_rounds = 1
"""

# What each shipped config and CFG_TEXT loaded to before their values took
# their types from the signatures they feed; the same configs load the same.
_LENET_MNIST = dict(arch="lenet5", dataset="mnist", data_dir="data", num_clients=100,
                    clients_per_round=10, local_epochs=5, batch_size=10, lr=0.01,
                    momentum=0.9, warmup_rounds=10, pruning_rounds=50,
                    admm_stage_rounds=3, mode="admm", seed=0)
LOADED = {
    "demo_synthetic.cfg": ExperimentConfig(
        arch="mlp", arch_params={"dims": (20, 16, 4)}, dataset="synthetic",
        dataset_params={"num_train": 2000, "num_test": 500, "num_features": 20,
                        "num_classes": 4},
        num_clients=10, clients_per_round=5, local_epochs=1, batch_size=10,
        warmup_rounds=3, pruning_rounds=9, admm_stage_rounds=1, mode="admm", seed=0,
        sparsity=SparsityConfig(keep={"fc1": 0.2, "fc2": 0.5}, rho=0.001)),
    "mnist_iid_cr10.cfg": ExperimentConfig(
        **_LENET_MNIST, sparsity=SparsityConfig(
            keep={"conv1": 0.8, "conv2": 0.4, "fc1": 0.0754825, "fc2": 0.5}, rho=0.001)),
    "mnist_iid_cr87.cfg": ExperimentConfig(
        **_LENET_MNIST, sparsity=SparsityConfig(
            keep={"conv1": 0.5, "conv2": 0.06, "fc1": 0.0055025, "fc2": 0.2}, rho=0.001)),
    "CFG_TEXT": ExperimentConfig(
        arch="mlp", arch_params={"dims": (10, 8, 3)}, dataset="synthetic",
        dataset_params={"num_train": 300, "num_test": 90, "num_features": 10,
                        "num_classes": 3},
        num_clients=6, clients_per_round=3, local_epochs=1, batch_size=10,
        warmup_rounds=2, pruning_rounds=6, admm_stage_rounds=1, mode="admm", seed=3,
        sparsity=SparsityConfig(keep={"fc1": 0.25, "fc2": 0.5}, rho=0.001)),
}


HINTS = typing.get_type_hints(ExperimentConfig)


def _value_type(tp):
    """int, float or str for a field of that type or an optional one, else None."""
    types = set(typing.get_args(tp) or [tp]) - {type(None)}
    return types.pop() if len(types) == 1 and types <= {int, float, str} else None


SCALAR_FIELDS = {name: _value_type(tp) for name, tp in HINTS.items() if _value_type(tp)}
OPTIONAL_FIELDS = [name for name in SCALAR_FIELDS if type(None) in typing.get_args(HINTS[name])]
# the section of the fields that [federation] does not hold
SECTION = {"arch": "model", "dataset": "data", "data_dir": "data"}


def _with(text: str, section: str, key: str, value: str) -> str:
    """Config text with section's key set to value."""
    cp = configparser.ConfigParser()
    cp.read_string(text)
    cp[section][key] = value
    out = io.StringIO()
    cp.write(out)
    return out.getvalue()


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(CFG_TEXT)
    return p


class TestLoadConfig:
    def test_round_trip(self, cfg_file):
        cfg = load_config(cfg_file)
        assert cfg.arch == "mlp"
        assert cfg.arch_params == {"dims": (10, 8, 3)}
        assert cfg.dataset_params["num_train"] == 300
        assert cfg.num_clients == 6
        assert cfg.mode == "admm"
        assert cfg.sparsity.keep == {"fc1": 0.25, "fc2": 0.5}
        assert cfg.sparsity.rho == 0.001

    def test_overrides_win(self, cfg_file):
        cfg = load_config(cfg_file, seed=99, mode="dense", pruning_rounds=0)
        assert cfg.seed == 99
        assert cfg.mode == "dense"
        assert cfg.pruning_rounds == 0

    def test_none_overrides_ignored_by_cli_layer(self, cfg_file):
        cfg = load_config(cfg_file, seed=None)
        assert cfg.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[secrets]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(p)

    def test_crypto_section_rejected(self, tmp_path):
        # the enclave's scratch limit is not configurable; a key that would
        # be parsed and then ignored is refused instead
        p = tmp_path / "bad.cfg"
        p.write_text("[crypto]\nscratch_limit_mb = 0.0001\n")
        with pytest.raises(ConfigError, match="unknown config sections"):
            load_config(p)

    def test_unknown_federation_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[federation]\nlearning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown \\[federation\\] key"):
            load_config(p)

    def test_bad_numeric_value(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[federation]\nnum_clients = many\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(p)

    def test_bad_keep_fraction(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[pruning]\nfc1 = lots\n")
        with pytest.raises(ConfigError, match="bad keep fraction"):
            load_config(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_rho_must_be_finite_and_positive(self, tmp_path, value):
        # rho = nan used to load, then reject every ADMM upload and abort the run
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("rho = 0.001", f"rho = {value}"))
        with pytest.raises(ConfigError, match="rho must be finite and > 0"):
            load_config(p)

    def test_bad_rho_value_names_the_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("rho = 0.001", "rho = abc"))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == "bad value for rho: 'abc'"

    def test_invalid_combination_surfaces_as_config_error(self, cfg_file):
        with pytest.raises(ConfigError):
            load_config(cfg_file, clients_per_round=50)

    @pytest.mark.parametrize("key, value", [
        ("bandwidth_mbps", "-1"), ("bandwidth_mbps", "0"), ("bandwidth_mbps", "nan"),
        ("bandwidth_mbps", "inf"), ("lr", "-0.01"), ("lr", "nan"), ("lr", "inf")])
    def test_bad_bandwidth_or_lr_rejected(self, tmp_path, key, value):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("seed = 3", f"seed = 3\n{key} = {value}"))
        with pytest.raises(ConfigError, match=key):
            load_config(p)

    def test_zero_lr_and_link_bandwidth_accepted(self, tmp_path):
        # lr = 0 means no local training; bandwidth is in megabits per second
        p = tmp_path / "ok.cfg"
        p.write_text(CFG_TEXT.replace("seed = 3", "seed = 3\nlr = 0\nbandwidth_mbps = 2.5"))
        cfg = load_config(p)
        assert (cfg.lr, cfg.bandwidth_mbps) == (0.0, 2.5)

    @pytest.mark.parametrize("old, new, match", [
        ("dataset = synthetic", "dataset = bogus", "unknown dataset"),
        ("mode = admm", "mode = admm\npartition = bogus", "unknown partition"),
        ("num_classes = 3", "num_classes = 3\npartition = noniid", "partition"),
        ("num_classes = 3", "num_classes = 3\nnum_samples = 50", "num_samples"),
        ("dataset = synthetic\nnum_train = 300\nnum_test = 90\nnum_features = 10\n"
         "num_classes = 3", "dataset = mnist\nnum_train = 100", "num_train"),
        ("batch_size = 10", "batch_size = 0", "batch_size"),
        ("seed = 3", "seed = 3\neval_examples = 0", "eval_examples"),
        ("local_epochs = 1", "local_epochs = -1", "local_epochs"),
        ("num_clients = 6", "num_clients = 0", "num_clients must be >= 1, not 0"),
        ("clients_per_round = 3", "clients_per_round = 0",
         "clients_per_round must be >= 1, not 0"),
        ("warmup_rounds = 2", "warmup_rounds = -1", "warmup_rounds must be >= 0, not -1"),
        ("pruning_rounds = 6", "pruning_rounds = -1", "pruning_rounds must be >= 0, not -1"),
    ], ids=["dataset", "partition", "partition_in_data", "unknown_data_key",
            "mnist_data_key", "batch_size", "eval_examples", "local_epochs",
            "num_clients", "clients_per_round", "warmup_rounds", "pruning_rounds"])
    def test_rejected_at_load_not_mid_run(self, tmp_path, old, new, match):
        # each of these used to load, then abort the run, or be ignored
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(p)

    def test_rho_without_keep_fraction_rejected(self, tmp_path):
        # in dense mode this loaded, and rho was dropped unread
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("mode = admm", "mode = dense")
                     .replace("fc1 = 0.25\nfc2 = 0.5\n", ""))
        with pytest.raises(ConfigError, match="rho but no keep fraction"):
            load_config(p)

    @pytest.mark.parametrize("name", sorted(LOADED))
    def test_shipped_configs_load_as_before(self, tmp_path, name):
        path = tmp_path / "exp.cfg" if name == "CFG_TEXT" else CONFIGS / name
        if name == "CFG_TEXT":
            path.write_text(CFG_TEXT)
        cfg = load_config(path)
        assert cfg == LOADED[name]
        assert repr(cfg) == repr(LOADED[name])      # same types: 300, not 300.0

    def test_every_shipped_config_is_recorded(self):
        assert {p.name for p in CONFIGS.glob("*.cfg")} == set(LOADED) - {"CFG_TEXT"}

    @pytest.mark.parametrize("name", sorted(SCALAR_FIELDS))
    def test_every_scalar_field_is_a_key(self, tmp_path, name):
        # a file sets exactly ExperimentConfig's scalar fields, each read as
        # its field's type; a str field keeps its value where no other is valid
        tp, old = SCALAR_FIELDS[name], getattr(LOADED["CFG_TEXT"], name)
        if tp is str:
            value = {"mode": "masked", "partition": "noniid"}.get(name, old or "elsewhere")
        else:
            value = (old or 0) + 1 if tp is int else (old or 1.0) / 2
        p = tmp_path / "exp.cfg"
        p.write_text(_with(CFG_TEXT, SECTION.get(name, "federation"), name, str(value)))
        got = getattr(load_config(p), name)
        assert (got, type(got)) == (value, tp)

    @pytest.mark.parametrize("name", OPTIONAL_FIELDS)
    def test_optional_field_reads_empty_as_none(self, tmp_path, name):
        p = tmp_path / "exp.cfg"
        p.write_text(_with(CFG_TEXT, SECTION.get(name, "federation"), name, ""))
        assert getattr(load_config(p), name) is None

    def test_builder_arguments_take_their_types(self, tmp_path):
        p = tmp_path / "convnet.cfg"
        p.write_text(CONVNET_TEXT)
        cfg = load_config(p)
        assert repr(cfg.arch_params) == "{'in_ch': 1, 'side': 16, 'num_classes': 3}"
        assert repr(cfg.dataset_params) == ("{'num_train': 60, 'num_test': 20, "
                                            "'channels': 1, 'side': 16, 'num_classes': 3, "
                                            "'spread': 1.0}")

    def test_no_file_gives_the_defaults(self):
        assert load_config(None, mode="dense", seed=None) == ExperimentConfig(mode="dense")
        with pytest.raises(ConfigError, match="clients_per_round exceeds num_clients"):
            load_config(None, clients_per_round=500)

    def test_validate_notes(self, cfg_file):
        notes = validate_config(load_config(cfg_file))
        assert any("parameters" in n for n in notes)
        assert any("fc1" in n for n in notes)

    def test_validate_rejects_unknown_layer(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("fc1 = 0.25", "conv9 = 0.25"))
        with pytest.raises(ConfigError, match="unknown layers"):
            validate_config(load_config(p))


class TestCli:
    def test_validate_ok(self, cfg_file, capsys):
        assert main(["validate", "--config", str(cfg_file)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("[federation]\nmode = bogus\n")
        assert main(["validate", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("dims = 10, 8, 3", "dims = 10, 8, 3\ndepth = 3"),
        ("seed = 3", "seed = 3\nseed = 4"),
    ], ids=["unknown_model_key", "repeated_key"])
    def test_bad_file_is_an_error_not_a_traceback(self, tmp_path, capsys, old, new):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace(old, new))
        assert main(["validate", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        (CFG_TEXT.replace("num_train = 300", "num_train = 3e2"),
         "bad value for num_train: '3e2'"),
        (CONVNET_TEXT.replace("side = 16", "side = 16.0", 1), "bad value for side: '16.0'"),
        (CFG_TEXT.replace("num_clients = 6", "num_clients ="), "bad value for num_clients: ''"),
        (CFG_TEXT.replace("dims = 10, 8, 3", "dims = 10, 8.0, 3"),
         "bad value for dims: '10, 8.0, 3'"),
    ], ids=["float_for_int_data_key", "float_for_int_model_key", "empty_int",
            "float_in_dims"])
    def test_bad_value_named_before_anything_runs(self, tmp_path, capsys, text, error):
        # num_train = 3e2 used to validate, then abort the run; side = 16.0
        # used to end validate with a TypeError traceback
        p = tmp_path / "bad.cfg"
        p.write_text(text)
        assert main(["validate", "--config", str(p)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_eval_batch_size_is_a_federation_key(self, tmp_path, capsys):
        # it was refused as an unknown [federation] key
        p = tmp_path / "exp.cfg"
        p.write_text(CFG_TEXT.replace("seed = 3", "seed = 3\neval_batch_size = 64"))
        assert main(["validate", "--config", str(p)]) == 0
        assert load_config(p).eval_batch_size == 64

    def test_convnet_config_validates(self, tmp_path, capsys):
        p = tmp_path / "convnet.cfg"
        p.write_text(CONVNET_TEXT)
        assert main(["validate", "--config", str(p)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_run_checks_overrides_before_anything_runs(self, cfg_file, tmp_path, capsys):
        # --config is required: the defaults (admm with no sparsity, an
        # MNIST-sized mlp on 20-feature blobs) can only fail
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--out", str(out)])
        assert exc.value.code == 2
        assert main(["run", "--config", str(cfg_file), "--clients-per-round", "500",
                     "--out", str(out)]) == 2
        assert "clients_per_round exceeds num_clients" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "abc"])
    def test_validate_bad_rho(self, tmp_path, capsys, value):
        p = tmp_path / "bad.cfg"
        p.write_text(CFG_TEXT.replace("rho = 0.001", f"rho = {value}"))
        assert main(["validate", "--config", str(p)]) == 2
        assert "rho" in capsys.readouterr().err

    def test_run_writes_reports(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "results"
        rc = main(["run", "--config", str(cfg_file), "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "rounds.csv").exists()
        assert (out / "summary.txt").exists()
        assert "final_accuracy" in capsys.readouterr().out

    def test_run_progress_lines(self, cfg_file, tmp_path, capsys):
        main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "r"),
              "--rounds", "2"])
        out = capsys.readouterr().out
        assert out.count("round ") >= 4   # 2 warmup + 2 pruning


def _run_and_rows(cfg_file, tmp_path, **overrides):
    cfg = load_config(cfg_file, **overrides)
    res = run_experiment(cfg)
    paths = report.write_report(res, tmp_path)
    with open(paths["rounds"]) as f:
        rows = list(csv.DictReader(f))
    return res, rows, paths


class TestReport:
    def test_csv_header_and_row_count(self, cfg_file, tmp_path):
        res, rows, paths = _run_and_rows(cfg_file, tmp_path)
        with open(paths["rounds"]) as f:
            header = f.readline().strip().split(",")
        assert tuple(header) == report.CSV_COLUMNS
        assert len(rows) == res.config.total_rounds()

    def test_summary_totals_match_csv(self, cfg_file, tmp_path):
        res, rows, paths = _run_and_rows(cfg_file, tmp_path)
        text = paths["summary"].read_text()
        prune = [r for r in rows if r["phase"] in PRUNING_PHASES]
        actual = sum(int(r["bytes_up"]) + int(r["bytes_down"]) for r in prune)
        dense = sum(int(r["dense_bytes_up"]) + int(r["dense_bytes_down"]) for r in prune)
        assert f"pruning_phase_volume_bytes = {actual}" in text
        assert f"pruning_phase_volume_dense_equivalent_bytes = {dense}" in text
        saving = saving_percent(res.metrics)
        assert f"communication_saving_percent = {saving:.2f}" in text
        assert saving == pytest.approx(100 * (1 - actual / dense), abs=1e-6)
        assert f"finalize_s = {res.finalize_s:.3f}" in text
        assert "speedup_vs_dense_baseline = n/a (no bandwidth model)" in text

    def test_speedup_recomputed_from_metrics(self, cfg_file, tmp_path):
        res, _, paths = _run_and_rows(cfg_file, tmp_path, bandwidth_mbps=0.5)
        total = sum(m.total_s for m in res.metrics)
        actual, dense = pruning_phase_bytes(res.metrics)
        extra = (dense - actual) * 8 / (0.5 * 1e6)
        assert (f"speedup_vs_dense_baseline = {(total + extra) / total:.2f}x"
                in paths["summary"].read_text())

    def test_trusted_peak_column(self, cfg_file, tmp_path):
        res, rows, _ = _run_and_rows(cfg_file, tmp_path)
        assert [int(r["trusted_peak_bytes"]) for r in rows] == \
            [m.trusted_peak_bytes for m in res.metrics]
        # at least fedavg's fp64 accumulator of the model
        assert all(m.trusted_peak_bytes > 8 * res.global_params.param_count()
                   for m in res.metrics)

    def test_dense_run_saves_nothing(self, cfg_file, tmp_path):
        res, rows, _ = _run_and_rows(cfg_file, tmp_path, mode="dense",
                                     pruning_rounds=0)
        assert saving_percent(res.metrics) == 0.0
        assert all(r["phase"] in ("warmup", "dense") for r in rows)

    def test_masked_run_reports_pruning_phase(self, cfg_file, tmp_path):
        res, rows, _ = _run_and_rows(cfg_file, tmp_path, mode="masked")
        assert any(r["phase"] == "masked_prune" for r in rows)
        # CSR index overhead beats the savings on toy-sized layers, so the
        # saving can be negative here; it just has to be accounted at all
        assert saving_percent(res.metrics) != 0.0
        prune = [r for r in rows if r["phase"] == "masked_prune"]
        assert all(int(r["bytes_up"]) != int(r["dense_bytes_up"]) for r in prune)

    def test_csv_reproducible_except_timing(self, cfg_file, tmp_path):
        _, rows_a, _ = _run_and_rows(cfg_file, tmp_path / "a")
        _, rows_b, _ = _run_and_rows(cfg_file, tmp_path / "b")
        stable = [c for c in report.CSV_COLUMNS if not c.endswith("_s")]
        for ra, rb in zip(rows_a, rows_b):
            for col in stable:
                assert ra[col] == rb[col]

    def test_partial_flag_in_summary(self, cfg_file, tmp_path):
        res, _, _ = _run_and_rows(cfg_file, tmp_path / "full")
        paths = report.write_report(res, tmp_path / "p", partial=True)
        assert "PARTIAL" in paths["summary"].read_text()

    def test_empty_result_rejected(self, cfg_file, tmp_path):
        res = run_experiment(load_config(cfg_file, pruning_rounds=0,
                                         mode="dense", warmup_rounds=1))
        object.__setattr__(res, "metrics", [])
        with pytest.raises(ValueError):
            report.write_report(res, tmp_path)
