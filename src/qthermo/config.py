"""Run configuration: file parsing, defaults, validation, overrides.

Config grammar (documented in the README):

* ``key = value`` pairs, one per line
* ``#`` starts a comment, blank lines are ignored
* ``[experiment]`` section headers scope the keys that follow to one
  experiment; keys before any header apply to every experiment
* list values are comma separated numbers, e.g. ``kappa_list = 0.6, 0.8``

Precedence: command-line ``--param key=value`` overrides the file, the file
overrides per-experiment defaults.  An experiment's config keys are the
keywords of its runner (``experiments.EXPERIMENTS[name].run``) and their
defaults are the runner's; defaults reproduce the package's standard
parameter sets.  A key has one config type, the same in every experiment
that takes it: :data:`KINDS` holds it, and :func:`coerce_value` interprets
it.  Unknown keys and non-finite numbers are rejected.
"""

from __future__ import annotations

import copy
import functools
import inspect
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .experiments import EXPERIMENTS, MODEL_NAMES

__all__ = ["KINDS", "RunConfig", "parse_config_file", "resolve", "validate", "coerce_value"]

#: The config type of every key of every experiment.
KINDS = {
    "model": "model", "at": "time_or_steady", "theta": "angle", "theta_list": "angle_list",
    "kappa_list": "pos_list", **dict.fromkeys(("n_points", "ratio_points", "n_line"), "grid_int"),
    **dict.fromkeys(("eta", "eta1", "eta2"), "nonneg_float"),
    **dict.fromkeys(("temperature", "kappa", "cutoff", "t_max"), "pos_float"),
    **dict.fromkeys(("ratio_min", "ratio_max", "line_t_min", "line_t_max"), "pos_float"),
}


@dataclass
class RunConfig:
    experiment: str
    options: dict = field(default_factory=dict)
    out_dir: str = "."


def _number(raw) -> float:
    """A finite float from a config string or a number."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number") from None
    if not np.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def coerce_value(key: str, raw) -> object:
    """Coerce and range-check one value of ``key``, by its kind in
    :data:`KINDS`; raw is a string or a number."""
    kind = KINDS[key]
    try:
        if kind == "model":
            value = str(raw).strip()
            if value not in MODEL_NAMES:
                raise ValueError(f"must be one of {', '.join(MODEL_NAMES)}")
            return value
        if kind == "time_or_steady":
            value = str(raw).strip()
            if value == "steady":
                return value
            t = _number(value)
            if t < 0:
                raise ValueError("must be >= 0 or 'steady'")
            return t
        if kind in ("pos_float", "nonneg_float", "angle"):
            value = _number(raw)
            if kind == "pos_float" and value <= 0:
                raise ValueError("must be > 0")
            if kind == "nonneg_float" and value < 0:
                raise ValueError("must be >= 0")
            if kind == "angle" and not 0.0 <= value <= np.pi:
                raise ValueError("must lie in [0, pi]")
            return value
        if kind == "grid_int":
            value = _number(raw)
            if value != int(value):
                raise ValueError("must be an integer")
            value = int(value)
            if not 2 <= value <= 100_000:  # a grid's states are held at once
                raise ValueError("must lie in [2, 100000]")
            return value
        if kind in ("pos_list", "angle_list"):
            items = [p.strip() for p in raw.split(",") if p.strip()] if isinstance(raw, str) else raw
            values = [_number(v) for v in items]
            if not values:
                raise ValueError("list must not be empty")
            for v in values:
                if kind == "pos_list" and v <= 0:
                    raise ValueError("list entries must be > 0")
                if kind == "angle_list" and not 0.0 <= v <= np.pi:
                    raise ValueError("list entries must lie in [0, pi]")
            return values
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from None
    raise ValidationError(key, f"unhandled config type {kind!r}")  # pragma: no cover


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse the flat key-value format into raw {section: {key: value}}.

    The pseudo-section ``""`` holds keys that precede any header.
    """
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path!r}: {exc}")
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            name = line[1:-1].strip()
            if name not in EXPERIMENTS:
                raise ParseError(f"unknown experiment section [{name}]", line=lineno)
            sections.setdefault(name, {})
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        sections[current][key] = value
    return sections


@functools.cache
def _defaults(experiment: str) -> dict:
    """The runner's keyword defaults of one experiment (``workers`` aside),
    coerced as config values are; a default of ``None`` (the runner decides)
    stays ``None``."""
    return {
        key: None if p.default is None else coerce_value(key, p.default)
        for key, p in inspect.signature(EXPERIMENTS[experiment].run).parameters.items()
        if key != "workers" and KINDS[key]  # a keyword with no kind raises KeyError here
    }


def resolve(
    experiment: str,
    file_sections: dict[str, dict[str, str]] | None = None,
    overrides: dict[str, str] | None = None,
    out_dir: str | None = None,
) -> RunConfig:
    """Merge the runner's defaults, config file and overrides for one experiment."""
    if experiment not in EXPERIMENTS:
        raise ValidationError("experiment", f"unknown experiment {experiment!r}")
    defaults = _defaults(experiment)
    # a copy per config: no two configs share a default list
    options = {key: copy.copy(value) for key, value in defaults.items()}
    resolved_out = "."

    def apply(key: str, raw):
        nonlocal resolved_out
        if key == "out":
            resolved_out = str(raw).strip()
            return
        if key not in defaults:
            raise ValidationError(key, f"unknown key for experiment {experiment!r}")
        options[key] = coerce_value(key, raw)

    if file_sections:
        # keys outside any section must be valid for the chosen run too
        for section in ("", experiment):
            for key, raw in file_sections.get(section, {}).items():
                apply(key, raw)
    for key, raw in (overrides or {}).items():
        apply(key, raw)
    if out_dir is not None:
        resolved_out = out_dir
    return RunConfig(experiment=experiment, options=options, out_dir=resolved_out)


def validate(file_sections: dict | None = None, overrides: dict | None = None) -> tuple[list, dict]:
    """The experiments a config is valid for, and the error of each it fails
    for: a file's sections (every experiment if it has none), or without a
    file those whose runners take an override's key (every one without
    overrides); a key that none takes, or a value its kind rejects, raises."""
    todo = [name for name in file_sections or {} if name] or list(EXPERIMENTS)
    if file_sections is None:
        keys = [key for key in overrides or {} if key != "out"]
        for key in keys:
            if not any(key in _defaults(name) for name in EXPERIMENTS):
                raise ValidationError(key, "unknown key for every experiment")
            coerce_value(key, overrides[key])  # then every experiment taking it resolves
        return [name for name in todo if any(key in _defaults(name) for key in keys)] or todo, {}
    failures = {}
    for name in todo:
        try:
            resolve(name, file_sections, overrides)
        except ValidationError as exc:
            failures[name] = exc
    return [name for name in todo if name not in failures], failures
