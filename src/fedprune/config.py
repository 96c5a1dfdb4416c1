"""Experiment config files: INI-style key=value text with sections
[model], [data], [federation], [pruning].  Every key has a
default; [pruning] holds ``rho`` plus ``layer_id = keep_fraction`` entries.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .federation import ExperimentConfig
from .nn import init_model
from .pruning import SparsityConfig


class ConfigError(ValueError):
    pass


_INT_KEYS = {"num_clients", "clients_per_round", "local_epochs", "batch_size",
             "warmup_rounds", "pruning_rounds", "admm_stage_rounds", "seed",
             "eval_examples"}
_FLOAT_KEYS = {"lr", "momentum", "bandwidth_mbps"}
_STR_KEYS = {"mode", "partition"}


def _convert(key: str, raw: str):
    raw = raw.strip()
    if raw == "":
        return None
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def _auto(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse a config file; keyword overrides (CLI flags) win over the file."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    known = {"model", "data", "federation", "pruning"}
    stray = set(cp.sections()) - known
    if stray:
        raise ConfigError(f"unknown config sections: {sorted(stray)}")

    kwargs: dict = {}
    if cp.has_section("model"):
        for key, raw in cp.items("model"):
            if key == "arch":
                kwargs["arch"] = raw.strip()
            elif key == "dims":
                kwargs.setdefault("arch_params", {})["dims"] = \
                    tuple(int(v) for v in raw.split(","))
            else:
                kwargs.setdefault("arch_params", {})[key] = _auto(raw)
    if cp.has_section("data"):
        for key, raw in cp.items("data"):
            if key in ("dataset", "data_dir"):
                kwargs[key] = raw.strip()
            else:
                kwargs.setdefault("dataset_params", {})[key] = _auto(raw)
    if cp.has_section("federation"):
        for key, raw in cp.items("federation"):
            if key not in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
                raise ConfigError(f"unknown [federation] key: {key}")
            val = _convert(key, raw)
            if val is not None:
                kwargs[key] = val
    rho = 1e-3
    keep: dict[str, float] = {}
    if cp.has_section("pruning"):
        for key, raw in cp.items("pruning"):
            try:
                if key == "rho":
                    rho = float(raw)
                else:
                    keep[key] = float(raw)
            except ValueError as exc:
                what = "value for rho" if key == "rho" else f"keep fraction for {key}"
                raise ConfigError(f"bad {what}: {raw!r}") from exc

    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        if keep:
            kwargs["sparsity"] = SparsityConfig(keep=keep, rho=rho)
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Human-readable notes on a config, which ExperimentConfig has already
    checked: the arch builds and the keep fractions name its layers."""
    notes = []
    arch = cfg.build_arch()
    notes.append(f"arch {cfg.arch}: {init_model(arch, 0).param_count()} parameters")
    if cfg.sparsity is not None:
        notes.append(f"constrained layers: {sorted(cfg.sparsity.keep)}")
    notes.append(f"{cfg.total_rounds()} rounds "
                 f"({cfg.warmup_rounds} warmup + {cfg.pruning_rounds} pruning), "
                 f"mode {cfg.mode}")
    return notes
