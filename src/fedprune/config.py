"""Experiment config files: INI-style key=value text with sections
[model], [data], [federation], [pruning].  Every key has a default, and each
value takes its type from the signature it feeds: a [federation] key, and
[model]'s ``arch`` and [data]'s ``dataset`` and ``data_dir``, from the
ExperimentConfig field of that name; any other [model] or [data] key from
that argument of the chosen arch builder or dataset generator
(``federation._ARCHES``, ``federation._DATASETS``), with a ``Sequence[int]``
written ``dims = 20, 16, 4``.  An optional type reads an empty value as None.
[pruning] holds ``layer_id = keep_fraction`` entries, and ``rho`` only
beside at least one of them.  A bad value, an unknown key or section, or a
config that ExperimentConfig rejects raises ConfigError before anything
runs.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .federation import _ARCHES, _DATASETS, ExperimentConfig
from .nn import init_model
from .pruning import SparsityConfig


class ConfigError(ValueError):
    pass


_FIELDS = get_type_hints(ExperimentConfig)
# the fields each section sets; [federation] takes every scalar field left
_SECTION_FIELDS = {"model": {"arch"}, "data": {"dataset", "data_dir"}}
_SECTION_FIELDS["federation"] = {
    k for k, tp in _FIELDS.items() if set(get_args(tp) or (tp,)) <= {int, float, str, type(None)}
} - {"arch", "dataset", "data_dir"}


def _parse(key: str, tp, raw: str):
    """raw as a value of type tp: int, float, str or Sequence[int] (comma
    separated), or an optional one of these, which reads "" as None."""
    raw = raw.strip()
    args = get_args(tp)
    if type(None) in args:
        if not raw:
            return None
        tp, = set(args) - {type(None)}
    try:
        if get_origin(tp) is None:
            return tp(raw)
        item, = get_args(tp)
        return tuple(item(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse a config file; a key it leaves out takes its default, and
    keyword overrides (CLI flags) win over the file."""
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    stray = set(cp.sections()) - {*_SECTION_FIELDS, "pruning"}
    if stray:
        raise ConfigError(f"unknown config sections: {sorted(stray)}")

    def items(section: str) -> dict[str, str]:
        return dict(cp.items(section)) if cp.has_section(section) else {}

    kwargs: dict = {}
    params: dict[str, dict[str, str]] = {"model": {}, "data": {}}
    for section, keys in _SECTION_FIELDS.items():
        for key, raw in items(section).items():
            if key in keys:
                kwargs[key] = _parse(key, _FIELDS[key], raw)
            elif section == "federation":
                raise ConfigError(f"unknown [federation] key: {key}")
            else:
                params[section][key] = raw
    # An unknown arch or dataset, or a key its builder does not take, is
    # passed on as text for ExperimentConfig to report.
    for section, choice, builders in (("model", "arch", _ARCHES),
                                      ("data", "dataset", _DATASETS)):
        if params[section]:
            fn = builders.get(kwargs.get(choice, getattr(ExperimentConfig, choice)))
            types = get_type_hints(fn) if fn else {}
            kwargs[f"{choice}_params"] = {
                key: _parse(key, types[key], raw) if key in types and key != "return"
                else raw for key, raw in params[section].items()}

    keep = items("pruning")
    rho = {"rho": _parse("rho", float, keep.pop("rho"))} if "rho" in keep else {}
    if rho and not keep:
        raise ConfigError("[pruning] sets rho but no keep fraction")
    for key, raw in keep.items():
        try:
            keep[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad keep fraction for {key}: {raw!r}") from exc

    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        if keep:
            kwargs["sparsity"] = SparsityConfig(keep=keep, **rho)
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
