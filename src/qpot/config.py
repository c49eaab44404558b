"""Config-file parsing and serialization.

The format is flat ``key = value`` text grouped under ``[section]``
headers, one experiment per file. Values are SI numbers, optionally with
a unit suffix (``z0 = 2.3um``, ``t_final = 2ms``), booleans, bare words
or comma-separated lists of any of these. ``#`` starts a comment. Unknown
sections and unknown keys are errors rather than silent no-ops.
"""

import math
import re

from .core import Grid1D, PhysicalParams, default_grid
from .errors import ConfigError
from .experiments import SweepSpec, check_packet, window_config
from .propagate import EvolveConfig

_UNIT_FACTORS = {"": 1.0, "rad/s": 1.0, "nm": 1e-9, "um": 1e-6, "mm": 1e-3,
                 "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "kg": 1.0, "m": 1.0,
                 "s": 1.0, "J": 1.0}  # "": a bare number, already SI

_NUMBER = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z/]*)\s*$"
)


def parse_quantity(text):
    """A number with an optional SI unit suffix, returned in base SI; one that
    overflows a double is rejected."""
    m = _NUMBER.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, suffix = float(m.group(1)), m.group(2)
    if suffix not in _UNIT_FACTORS:
        raise ConfigError(f"unknown unit suffix {suffix!r} in {text!r}")
    value *= _UNIT_FACTORS[suffix]
    if math.isinf(value):
        raise ConfigError(f"quantity {text!r} overflows a double")
    return value


def parse_bool(text):
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def parse_int(text):
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"cannot parse integer {text!r}") from None


def parse_count(text):
    value = parse_int(text)
    if value < 0:
        raise ConfigError(f"expected a non-negative integer, got {value}")
    return value


def parse_packet(text):
    """A packet name: a key of experiments.PACKETS."""
    return check_packet(text.strip())


def parse_list(item_parser):
    def parse(text):
        items = [s for s in (p.strip() for p in text.split(",")) if s]
        if not items:
            raise ConfigError("empty list value")
        return tuple(item_parser(s) for s in items)

    return parse


def parse_rule(text):
    """Width rule: 'ratio 0.5' or 'fixed 1um'."""
    parts = text.split(None, 1)
    if len(parts) != 2 or parts[0] not in ("ratio", "fixed"):
        raise ConfigError(f"cannot parse width rule {text!r}; "
                          "expected 'ratio R' or 'fixed SIGMA'")
    return (parts[0], parse_quantity(parts[1]))


_SCHEMA = {
    "params": {
        "mass": parse_quantity,
        "c4": parse_quantity,
        "z0": parse_quantity,
        "sigma": parse_quantity,
        "delta": parse_quantity,
        "absorber_strength": parse_quantity,
        "trap_omega": parse_quantity,
    },
    "grid": {
        "z_max": parse_quantity,
        "n_points": parse_int,
    },
    "evolve": {
        "dt": parse_quantity,
        "t_final": parse_quantity,
        "snapshot_stride": parse_count,
        "packet": parse_packet,
    },
    "sweep": {
        "z0_values": parse_list(parse_quantity),
        "sigma_rule": parse_rule,
        "t_average_window": parse_quantity,
    },
    "compare": {
        "t_average_window": parse_quantity,
    },
    "fitted": {
        "engineered_z0": parse_quantity,
        "engineered_sigma": parse_quantity,
        "gaussian_z0": parse_quantity,
        "gaussian_sigma": parse_quantity,
        "auto_fit": parse_bool,
        "t_average_window": parse_quantity,
    },
    "prepare": {
        "slope_z0_values": parse_list(parse_quantity),
        "t_window": parse_quantity,
    },
    "fields": {
        "support_cut": parse_quantity,
    },
    "profile": {
        "use_abs": parse_bool,
    },
    "converge": {
        "t_final": parse_quantity,
        "dt_ladder": parse_list(parse_quantity),
        "n_refinements": parse_int,
        "packet": parse_packet,
    },
}


def parse_config_text(text):
    """Parse config text into {section: {key: typed value}}."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        schema = _SCHEMA[current]
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        try:
            sections[current][key] = schema[key](value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return sections


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None


def params_from(cfg):
    return PhysicalParams(**cfg.get("params", {}))


def grid_from(cfg, params=None):
    base = default_grid(params)
    return Grid1D(**{"z_max": base.z_max, "n_points": base.n_points, **cfg.get("grid", {})})


def evolve_from(cfg, window=None, name=None):
    """[evolve] as an EvolveConfig, without packet and snapshot_stride, which
    are qpot evolve's own: a study (window given) rejects a packet or a nonzero
    stride. A study's window `name` is its t_final default."""
    section = dict(cfg.get("evolve", {}))
    for key in ("packet", "snapshot_stride"):
        if section.pop(key, None) and window is not None:
            raise ConfigError(f"[evolve] {key} is read only by qpot evolve, not by a study")
    if window is not None and "t_final" not in section:
        return window_config(None, window, name, dt=section.get("dt", EvolveConfig.dt))
    return EvolveConfig(**section)


def sweep_from(cfg):
    return SweepSpec(**cfg.get("sweep", {}))


def config_to_text(cfg):
    """Render a config back to file form; every run manifest is written by it.

    A section is either a {key: value} dict or an object, such as
    PhysicalParams, Grid1D, EvolveConfig or SweepSpec, whose attributes
    hold the values. Only that section's keys are written, in schema
    order; parsing the text gives the section back.
    """
    out = []
    for name, section in cfg.items():
        if not isinstance(section, dict):
            section = vars(section)
        out.append(f"[{name}]")
        for key in _SCHEMA[name]:
            if key not in section:
                continue
            value = section[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = (" " if key == "sigma_rule" else ", ").join(map(str, value))
            out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"
