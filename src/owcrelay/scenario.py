"""Scenario configuration: defaults, YAML round-trip, and result writers.

A scenario document is a plain mapping with the same shape as
:func:`Scenario.to_dict`.  Loading merges the document into the defaults,
rejects unknown keys by path, and coerces every value to its field's
annotated type, so the dataclasses below are the only schema.  Numbers go
through float so scientific-notation strings survive YAML's parsing quirks.
Every section and entry checks its own fields when it is built, and a
:class:`Scenario` checks the rules across them, so a config that exists is
valid, whether a document or a library call built it.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any

import yaml

__all__ = [
    "ScenarioError",
    "RoomConfig",
    "ApConfig",
    "RelayConfig",
    "UserConfig",
    "HumanConfig",
    "NoiseConfig",
    "NomaConfig",
    "SamplerConfig",
    "ChannelConfig",
    "Scenario",
    "default_scenario",
    "load_scenario",
    "save_scenario",
    "result_lines",
    "write_results",
]


class ScenarioError(ValueError):
    """A scenario document is malformed or inconsistent."""


@dataclass(frozen=True)
class RoomConfig:
    """Rectangular room, corner at the origin, z up."""

    width_m: float = 4.0
    length_m: float = 8.0
    height_m: float = 3.0
    wall_reflectivity: float = 0.8
    ceiling_reflectivity: float = 0.8
    floor_reflectivity: float = 0.3
    # cosine exponent of surface re-emission; 1 is ideal diffuse
    lambertian_mode: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.width_m, self.length_m, self.height_m)):
            raise ScenarioError("room: extents must be positive")
        for name in ("wall_reflectivity", "ceiling_reflectivity", "floor_reflectivity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ScenarioError(f"room.{name}: must lie in [0, 1], got {v}")
        if not 1 <= self.lambertian_mode < math.inf:
            raise ScenarioError("room.lambertian_mode: must be at least 1")


_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive")
_ANGLE = (lambda v: 0 < v <= 90, "must lie in (0, 90]")
# range rules of the aps, relays and users entries, each applied where the field exists
_ENTRY_RANGES = {
    "power_mw": _POSITIVE,
    # the beam half-angle, divergence_mrad * 1e-3 rad, lies below pi/2
    "divergence_mrad": (lambda v: 0 < v * 1e-3 < math.pi / 2, "must lie in (0, 500 pi)"),
    "area_cm2": _POSITIVE,
    "responsivity_a_per_w": _POSITIVE,
    "max_steering_deg": _ANGLE,
    "fov_deg": _ANGLE,
    "elevation_deg": (lambda v: 0 <= v <= 90, "must lie in [0, 90]"),
    "azimuth_deg": (math.isfinite, "must be finite"),
}


def _check_entry(entry) -> None:
    """The range rules of an aps, relays or users entry, and a relay's axis
    rule.  An entry does not know its place in the document, so the message
    names the field alone; loading a document prefixes the entry's path."""
    for name, (in_range, rule) in _ENTRY_RANGES.items():
        if hasattr(entry, name) and not in_range(getattr(entry, name)):
            raise ScenarioError(f"{name}: {rule}")
    axis = getattr(entry, "axis", None)
    if axis is not None and not (all(map(math.isfinite, axis)) and any(axis)):
        raise ScenarioError("axis: must be a non-zero finite vector")


@dataclass(frozen=True)
class ApConfig:
    id: str
    position_m: tuple[float, float, float]
    power_mw: float = 1.0
    divergence_mrad: float = 2.1
    max_steering_deg: float = 40.0

    __post_init__ = _check_entry


@dataclass(frozen=True)
class RelayConfig:
    id: str
    position_m: tuple[float, float, float]
    power_mw: float = 1.0
    divergence_mrad: float = 2.1
    max_steering_deg: float = 90.0
    area_cm2: float = 1.0
    fov_deg: float = 90.0
    responsivity_a_per_w: float = 0.5
    # boresight; None means "face away from the nearest wall"
    axis: tuple[float, float, float] | None = None

    __post_init__ = _check_entry


@dataclass(frozen=True)
class UserConfig:
    id: str
    position_m: tuple[float, float, float]
    area_cm2: float = 1.0
    fov_deg: float = 90.0
    responsivity_a_per_w: float = 0.5
    elevation_deg: float = 90.0
    azimuth_deg: float = 0.0

    __post_init__ = _check_entry


@dataclass(frozen=True)
class HumanConfig:
    height_m: float = 1.8
    radius_m: float = 0.3
    count: int = 1  # 0 disables blockage; only a single blocker is modelled

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.height_m, self.radius_m)):
            raise ScenarioError("human: height and radius must be positive")
        if self.count not in (0, 1):
            raise ScenarioError("human.count: only 0 or 1 blocking humans are modelled")


@dataclass(frozen=True)
class NoiseConfig:
    bandwidth_ghz: float = 10.0
    noise_density_a2hz: float = 1e-24
    background_current_a: float = 0.0

    def __post_init__(self):
        if not 0 < self.bandwidth_ghz < math.inf:
            raise ScenarioError("noise.bandwidth_ghz: must be positive")
        if not all(0 <= v < math.inf for v in (self.noise_density_a2hz, self.background_current_a)):
            raise ScenarioError("noise: densities and currents must be non-negative")


@dataclass(frozen=True)
class NomaConfig:
    power_ratio: float = 4.0
    threshold_db: float = 15.6
    combining: str = "summed"

    def __post_init__(self):
        if not 1 < self.power_ratio < math.inf:
            raise ScenarioError("noma.power_ratio: must exceed 1")
        if not 0 < self.threshold_db < math.inf:
            raise ScenarioError("noma.threshold_db: must be positive")
        if self.combining not in ("summed", "per_branch"):
            raise ScenarioError(f"noma.combining: unknown mode {self.combining!r}")


# Largest Monte Carlo sample count: 262,144 blocks of 16,384 samples.
MAX_SAMPLES = 2**32


@dataclass(frozen=True)
class SamplerConfig:
    samples: int = 100000
    seed: int = 1
    blockage_model: str = "joint"

    def __post_init__(self):
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ScenarioError(f"sampler.samples: must lie in [1, {MAX_SAMPLES}]")
        if not 0 <= self.seed < math.inf:
            raise ScenarioError("sampler.seed: must be non-negative")
        if self.blockage_model not in ("joint", "independent"):
            raise ScenarioError(f"sampler.blockage_model: unknown model {self.blockage_model!r}")


@dataclass(frozen=True)
class ChannelConfig:
    max_bounces: int = 2
    first_bounce_res_m: float = 0.05
    second_bounce_res_m: float = 0.20
    bin_ns: float = 0.01

    def __post_init__(self):
        if self.max_bounces not in (0, 1, 2):
            raise ScenarioError("channel.max_bounces: must be 0, 1 or 2")
        if not all(0 < v < math.inf for v in (self.first_bounce_res_m, self.second_bounce_res_m)):
            raise ScenarioError("channel: grid resolutions must be positive")
        if not 0 < self.bin_ns < math.inf:
            raise ScenarioError("channel.bin_ns: must be positive")


@dataclass(frozen=True)
class Scenario:
    name: str = "default"
    description: str = ""
    room: RoomConfig = field(default_factory=RoomConfig)
    aps: tuple[ApConfig, ...] = ()
    relays: tuple[RelayConfig, ...] = ()
    users: tuple[UserConfig, ...] = ()
    human: HumanConfig = field(default_factory=HumanConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    noma: NomaConfig = field(default_factory=NomaConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    # explicit serving map {ap id: [user ids]}; None means "use the steering cone"
    associations: dict[str, tuple[str, ...]] | None = None
    # explicit feeder map {relay id: ap id}; None means "nearest servable source"
    relay_pairings: dict[str, str] | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def __post_init__(self):
        # the rules across sections and entries, each of which checks itself
        errors: list[str] = []
        r = self.room
        if not self.aps:
            errors.append("aps: at least one access point is required")
        if not self.users:
            errors.append("users: at least one user is required")

        extents = (r.width_m, r.length_m, r.height_m)
        seen = set()  # ids are unique across all three kinds
        # position -> path of the first terminal there; a link joins terminals
        # of two kinds, and has no direction when both stand at one point
        first_at: dict[tuple, tuple[str, str]] = {}
        for kind, items in (("aps", self.aps), ("relays", self.relays), ("users", self.users)):
            for i, cfg in enumerate(items):
                if not cfg.id:
                    errors.append(f"{kind}[{i}].id: must be non-empty")
                if cfg.id in seen:
                    errors.append(f"{kind}[{i}].id: duplicate id {cfg.id!r}")
                seen.add(cfg.id)
                path = f"{kind}[{cfg.id or i}]"
                p = cfg.position_m
                if len(p) != 3:
                    errors.append(f"{path}.position_m: expected 3 coordinates")
                elif not all(0 <= v <= top for v, top in zip(p, extents)):
                    errors.append(
                        f"{path}.position_m: {list(p)} lies outside the room "
                        f"[0, {r.width_m}] x [0, {r.length_m}] x [0, {r.height_m}]"
                    )
                other_kind, other = first_at.setdefault(tuple(p), (kind, path))
                if other_kind != kind:
                    errors.append(f"{path}.position_m: coincides with {other}")

        if self.human.height_m > r.height_m:
            errors.append("human.height_m: taller than the room")

        ap_ids = {ap.id for ap in self.aps}
        user_ids = {u.id for u in self.users}
        relay_ids = {rl.id for rl in self.relays}
        if self.associations is not None:
            for ap_id, uids in self.associations.items():
                if ap_id not in ap_ids:
                    errors.append(f"associations[{ap_id}]: unknown access point")
                for uid in uids:
                    if uid not in user_ids:
                        errors.append(f"associations[{ap_id}]: unknown user {uid!r}")
        if self.relay_pairings is not None:
            for rid, ap_id in self.relay_pairings.items():
                if rid not in relay_ids:
                    errors.append(f"relay_pairings[{rid}]: unknown relay")
                if ap_id not in ap_ids:
                    errors.append(f"relay_pairings[{rid}]: unknown access point {ap_id!r}")

        if errors:
            raise ScenarioError("; ".join(errors))


def default_scenario() -> Scenario:
    """Eight ceiling sources, eight wall relays, six users on a desk plane."""
    aps = tuple(
        ApConfig(id=f"ap{i + 1}", position_m=pos)
        for i, pos in enumerate(
            [
                (1.0, 1.0, 3.0),
                (1.0, 3.0, 3.0),
                (1.0, 5.0, 3.0),
                (1.0, 7.0, 3.0),
                (3.0, 1.0, 3.0),
                (3.0, 3.0, 3.0),
                (3.0, 5.0, 3.0),
                (3.0, 7.0, 3.0),
            ]
        )
    )
    relays = tuple(
        RelayConfig(id=f"r{i + 1}", position_m=pos)
        for i, pos in enumerate(
            [
                (0.0, 1.0, 1.5),
                (0.0, 3.0, 1.5),
                (0.0, 5.0, 1.5),
                (0.0, 7.0, 1.5),
                (4.0, 1.0, 1.5),
                (4.0, 3.0, 1.5),
                (4.0, 5.0, 1.5),
                (4.0, 7.0, 1.5),
            ]
        )
    )
    users = tuple(
        UserConfig(id=f"u{i + 1}", position_m=pos)
        for i, pos in enumerate(
            [
                (1.0, 1.0, 1.0),
                (1.0, 4.0, 1.0),
                (1.0, 7.0, 1.0),
                (2.0, 1.0, 1.0),
                (2.0, 4.0, 1.0),
                (2.0, 7.0, 1.0),
            ]
        )
    )
    return Scenario(
        name="default",
        description="8x4x3 m office, steered 1 mW beams, six seated users",
        aps=aps,
        relays=relays,
        users=users,
    )


_VECTOR = tuple[float, float, float]


@functools.cache
def _schema(cls) -> tuple[dict[str, Any], tuple[str, ...]]:
    """Resolved field annotations of a config dataclass, and the fields
    without a default, which every document entry must state."""
    required = tuple(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    )
    return typing.get_type_hints(cls), required


def _merge(cls, base, doc: Any, path: str):
    """Merge the mapping ``doc`` into ``base``, an instance of the dataclass
    ``cls``, or build a new ``cls`` from ``doc`` alone when ``base`` is None."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path or 'scenario document'}: expected a mapping")
    hints, required = _schema(cls)
    if not all(name in doc for name in required):
        raise ScenarioError(f"{path}: {' and '.join(map(repr, required))} are required")
    updates = {}
    for key, value in doc.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key not in hints:
            raise ScenarioError(f"unknown key: {key_path}")
        updates[key] = _coerce(value, hints[key], key_path, getattr(base, key, None))
    if base is not None:
        return replace(base, **updates)
    try:
        return cls(**updates)
    except ScenarioError as exc:  # a list entry's own check names only the field
        raise ScenarioError(f"{path}.{exc}") from None


def _coerce(value, annotation, path: str, base=None):
    """Convert one document value to ``annotation``; ``base`` is the value a
    nested section merges into."""
    if annotation is int and type(value) is int:
        return value  # exact, where float() would round past 2**53
    if annotation is float or annotation is int:
        what = "a number" if annotation is float else "an integer"
        f = math.nan
        # YAML reads on/off/yes/no/true/false as booleans, which float() takes as 1 or 0
        if not isinstance(value, bool):
            try:
                f = float(value)
            except (TypeError, ValueError, OverflowError):
                pass
        if not math.isfinite(f) or (annotation is int and not f.is_integer()):
            raise ScenarioError(f"{path}: expected {what}, got {value!r}")
        return f if annotation is float else int(f)
    if annotation is str:
        return str(value)
    if annotation == _VECTOR:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ScenarioError(f"{path}: expected [x, y, z]")
        return tuple(_coerce(v, float, f"{path}[{i}]") for i, v in enumerate(value))
    if is_dataclass(annotation):
        return _merge(annotation, base, value, path)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is types.UnionType:  # T | None
        return None if value is None else _coerce(value, args[0], path)
    if origin is tuple:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{path}: expected a list")
        return tuple(_coerce(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ScenarioError(f"{path}: expected a mapping")
        return {
            _coerce(k, args[0], path): _coerce(v, args[1], f"{path}[{k}]")
            for k, v in value.items()
        }
    raise TypeError(f"{path}: no coercion for annotation {annotation!r}")


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a scenario by merging a plain mapping into the defaults."""
    return _merge(Scenario, default_scenario(), {} if doc is None else doc, "")


def load_scenario(path) -> Scenario:
    """Read a YAML scenario document and merge it into the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path) -> None:
    doc = scenario.to_dict()
    # tuples serialise as lists for a clean YAML document
    doc = json.loads(json.dumps(doc))
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


_RESULT_FIELDS = ("user_id", "mode", "p_out", "stderr", "n_samples", "threshold_db", "seed")


def _sig10(x: float) -> float:
    return float(format(float(x), ".10g"))


def _result_records(rows) -> list[dict]:
    """One record per outage row, floats already rounded to 10 significant digits."""
    records = []
    for row in rows:
        r = row if isinstance(row, dict) else {k: getattr(row, k) for k in _RESULT_FIELDS}
        records.append(
            {
                "user_id": r["user_id"],
                "mode": r["mode"],
                "p_out": _sig10(r["p_out"]),
                "stderr": _sig10(r["stderr"]),
                "n_samples": int(r["n_samples"]),
                "threshold_db": _sig10(r["threshold_db"]),
                "seed": int(r["seed"]),
            }
        )
    return records


def result_lines(rows) -> list[str]:
    """Header plus one comma-separated line per outage row, floats at 10
    significant digits.  The same lines back both stdout and CSV files, so
    the two are byte-for-byte interchangeable."""
    lines = [",".join(_RESULT_FIELDS)]
    for rec in _result_records(rows):
        lines.append(
            ",".join(format(v, ".10g") if isinstance(v, float) else str(v) for v in rec.values())
        )
    return lines


def write_results(rows, path, fmt: str = "csv") -> None:
    """Write outage rows to ``path``.

    ``rows`` is an iterable of mappings or objects with the result fields
    (user_id, mode, p_out, stderr, n_samples, threshold_db, seed).  Floats
    are written with 10 significant digits in both formats.
    """
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for line in result_lines(rows):
                fh.write(line + "\n")
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in _result_records(rows):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown result format {fmt!r}")
