"""Config file handling for the command-line laboratory.

The config is a single INI-style text file with sections [diffeo], [metric],
[integrator], [scan] and [output].  All angles are radians.  Every run emits
the effective configuration (defaults filled in) in the header of its
outputs, so an experiment is reproducible from the artifact alone.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .circle import (
    TWO_PI,
    BumpDiffeo,
    CircleDiffeo,
    IdentityDiffeo,
    MonotonicityViolation,
    RotationDiffeo,
    SplineDiffeo,
    periodic_spline,
)
from .metric import GluedMetric


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_DIFFEO_KINDS = ("identity", "rotation", "bump", "spline")


@dataclass
class Config:
    # [diffeo]
    kind: str = "bump"
    amplitude: float = 0.3
    support_lo: float = math.pi
    support_hi: float = TWO_PI
    angle: float = 0.0  # rotation kind only
    spline_knots: list = field(default_factory=list)
    spline_values: list = field(default_factory=list)
    # [metric]
    t0: float = 0.25
    t1: float = 0.75
    psi2_thetas: list = field(default_factory=list)
    psi2_values: list = field(default_factory=list)
    # [integrator]
    ds: float = 1e-3
    s_max: float = 20.0
    # [scan]
    n_samples: int = 360
    k_max: int = 64
    tol: float = 1e-9
    # [output]
    directory: str = "out"

    def build_diffeo(self) -> CircleDiffeo:
        try:
            if self.kind == "identity":
                return IdentityDiffeo()
            if self.kind == "rotation":
                return RotationDiffeo(self.angle)
            if self.kind == "bump":
                return BumpDiffeo(self.amplitude, self.support_lo, self.support_hi)
            if self.kind == "spline":
                if not self.spline_knots:
                    raise ConfigError("diffeo.spline_knots: required for kind=spline")
                return SplineDiffeo(self.spline_knots, self.spline_values)
        except MonotonicityViolation as exc:
            raise ConfigError(f"diffeo.amplitude: {exc}") from exc
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"diffeo: {exc}") from exc
        raise ConfigError(f"diffeo.kind: unknown kind {self.kind!r}")

    def build_metric(self, psi1_scale: float = 1.0) -> GluedMetric:
        f = self.build_diffeo()
        psi2 = None
        if self.psi2_thetas:
            if len(self.psi2_thetas) != len(self.psi2_values):
                raise ConfigError("metric.psi2_values: length must match metric.psi2_thetas")
            try:
                spline = periodic_spline(self.psi2_thetas, self.psi2_values)
            except ValueError as exc:
                raise ConfigError(f"metric.psi2_thetas: {exc}") from exc
            psi2 = (spline, lambda theta: spline(theta, 1))
        try:
            return GluedMetric(f, t0=self.t0, t1=self.t1, psi2=psi2, psi1_scale=psi1_scale)
        except ValueError as exc:
            raise ConfigError(f"metric: {exc}") from exc

    def validate(self) -> None:
        if self.kind not in _DIFFEO_KINDS:
            raise ConfigError(f"diffeo.kind: must be one of {_DIFFEO_KINDS}, got {self.kind!r}")
        for section, keys in _SECTIONS.items():
            for key in keys:
                value, kind = getattr(self, key), _FIELD_KINDS[key]
                values = value if kind == "list" else [value]
                if kind in ("float", "list") and not all(map(math.isfinite, values)):
                    raise ConfigError(f"{section}.{key}: must be finite, got {value!r}")
        if not 0.0 < self.t0 < self.t1 < 1.0:
            raise ConfigError(f"metric.t0/t1: need 0 < t0 < t1 < 1, got {self.t0}, {self.t1}")
        if not self.ds > 0:
            raise ConfigError(f"integrator.ds: must be positive, got {self.ds}")
        if not self.s_max > 0:
            raise ConfigError(f"integrator.s_max: must be positive, got {self.s_max}")
        if self.n_samples < 1:
            raise ConfigError(f"scan.n_samples: must be >= 1, got {self.n_samples}")
        if self.k_max < 1:
            raise ConfigError(f"scan.k_max: must be >= 1, got {self.k_max}")
        if not self.tol > 0:
            raise ConfigError(f"scan.tol: must be positive, got {self.tol}")
        # object-level invariants are enforced by construction
        self.build_metric()

    def effective_text(self) -> str:
        """Canonical INI text with every key explicit; emitting is idempotent."""
        blocks = []
        for section, keys in _SECTIONS.items():
            lines = [f"[{section}]"]
            for key in keys:
                value = getattr(self, key)
                kind = _FIELD_KINDS[key]
                if kind != "list" or value:  # empty lists are left out
                    lines.append(f"{key} = {_CODECS[kind][1](value)}")
            blocks.append("\n".join(lines) + "\n")
        return "\n".join(blocks)

    def header_lines(self) -> list[str]:
        """Effective config as comment-ready lines for output headers."""
        lines = []
        section = None
        for raw in self.effective_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            if raw.startswith("["):
                section = raw[1:-1]
                continue
            lines.append(f"{section}.{raw}")
        return lines


def _fmt_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _parse_list(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


# the one table of config keys: INI section -> keys, in emission order
_SECTIONS = {
    "diffeo": (
        "kind",
        "amplitude",
        "support_lo",
        "support_hi",
        "angle",
        "spline_knots",
        "spline_values",
    ),
    "metric": ("t0", "t1", "psi2_thetas", "psi2_values"),
    "integrator": ("ds", "s_max"),
    "scan": ("n_samples", "k_max", "tol"),
    "output": ("directory",),
}
# dataclass field type -> (parser, formatter)
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (float, repr),
    "list": (_parse_list, _fmt_list),
}
_FIELD_KINDS = {f.name: f.type for f in fields(Config)}
_SCHEMA = {
    section: {key: _CODECS[_FIELD_KINDS[key]][0] for key in keys}
    for section, keys in _SECTIONS.items()
}


def loads_config(text: str) -> Config:
    """Parse a config from INI text; unknown sections or keys abort."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = Config()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{section}: unknown config section")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}: unknown config key")
            conv = _SCHEMA[section][key]
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def load_config(path=None) -> Config:
    """Load a config file, or return the defaults when path is None.

    Unknown sections or keys abort with a diagnostic naming them; so do
    values that violate any constructed object's invariants.
    """
    if path is None:
        cfg = Config()
        cfg.validate()
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return loads_config(text)
