"""Config-file parsing and serialization.

The format is flat ``key = value`` text grouped under ``[section]``
headers, one experiment per file. Values are SI numbers, optionally with
a unit suffix of the key's dimension (``z0 = 2.3um``, ``t_final = 2ms``),
booleans, bare words or comma-separated lists of any of these. ``#``
starts a comment. Unknown sections and unknown keys are errors rather than
silent no-ops.
"""

import math
import re
from functools import partial

from .core import Grid1D, PhysicalParams, default_grid
from .errors import ConfigError
from .experiments import SweepSpec, check_packet, window_config
from .propagate import EvolveConfig

# suffix: (dimension, factor to SI); "": a bare number, already SI in any dimension
_UNITS = {"": (None, 1.0), "nm": ("a length", 1e-9), "um": ("a length", 1e-6),
          "mm": ("a length", 1e-3), "m": ("a length", 1.0), "ns": ("a time", 1e-9),
          "us": ("a time", 1e-6), "ms": ("a time", 1e-3), "s": ("a time", 1.0),
          "kg": ("a mass", 1.0), "rad/s": ("a rate", 1.0), "J": ("an energy", 1.0)}

_NUMBER = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z/]*)\s*$"
)


def parse_quantity(text, dimension):
    """A number of `dimension` with an optional unit suffix of that dimension,
    returned in base SI; one that overflows a double is rejected."""
    m = _NUMBER.match(text)
    if not m:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, suffix = float(m.group(1)), m.group(2)
    if suffix not in _UNITS:
        raise ConfigError(f"unknown unit suffix {suffix!r} in {text!r}")
    unit, factor = _UNITS[suffix]
    if unit not in (None, dimension):
        raise ConfigError(f"{text!r} is {unit}, not {dimension}")
    value *= factor
    if math.isinf(value):
        raise ConfigError(f"quantity {text!r} overflows a double")
    return value


# Parsers of the quantity keys by dimension; c4, in J m^4, takes no suffix.
_LENGTH = partial(parse_quantity, dimension="a length")
_TIME = partial(parse_quantity, dimension="a time")
_PURE = partial(parse_quantity, dimension="a pure number")


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
    return (parts[0], (_PURE if parts[0] == "ratio" else _LENGTH)(parts[1]))


_SCHEMA = {
    "params": {
        "mass": partial(parse_quantity, dimension="a mass"),
        "c4": partial(parse_quantity, dimension="a J m^4 coefficient"),
        "z0": _LENGTH,
        "sigma": _LENGTH,
        "delta": _LENGTH,
        "absorber_strength": partial(parse_quantity, dimension="an energy"),
        "trap_omega": partial(parse_quantity, dimension="a rate"),
    },
    "grid": {
        "z_max": _LENGTH,
        "n_points": parse_int,
    },
    "evolve": {
        "dt": _TIME,
        "t_final": _TIME,
        "snapshot_stride": parse_count,
        "packet": parse_packet,
    },
    "sweep": {
        "z0_values": parse_list(_LENGTH),
        "sigma_rule": parse_rule,
        "t_average_window": _TIME,
    },
    "compare": {
        "t_average_window": _TIME,
    },
    "fitted": {
        "engineered_z0": _LENGTH,
        "engineered_sigma": _LENGTH,
        "gaussian_z0": _LENGTH,
        "gaussian_sigma": _LENGTH,
        "auto_fit": parse_bool,
        "t_average_window": _TIME,
    },
    "prepare": {
        "slope_z0_values": parse_list(_PURE),
        "t_window": _TIME,
    },
    "fields": {
        "support_cut": _PURE,
    },
    "profile": {
        "use_abs": parse_bool,
    },
    "converge": {
        "t_final": _TIME,
        "dt_ladder": parse_list(_TIME),
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
