"""Scenario configuration: defaults, YAML round-trip, and result writers.

A scenario document is a plain mapping with the same shape as
:func:`Scenario.to_dict`.  Loading merges the document into the defaults,
rejects unknown keys by path, and coerces every value to its field's
annotated type, so the dataclasses below are the only schema.  Numbers go
through float so scientific-notation strings survive YAML's parsing quirks.
Each field states its default and its range rule together.  ``_section``
declares every section and entry frozen, with one check that runs all its
rules whenever it is built: a library call names the field (``width_m:
must be positive``), a document its path (``room.width_m: ...``).  A
:class:`Scenario` checks the rules across them, so a config that exists is
valid, whether a document or a library call built it.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Any

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


def _rule(default, rule):
    """A field with its default and its range rule: a test that every value
    must pass, and the text of the rule that a failing value breaks."""
    return field(default=default, metadata={"rule": rule})


_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be non-negative")
_FRACTION = (lambda v: 0 <= v <= 1, "must lie in [0, 1]")
_ANGLE = (lambda v: 0 < v <= 90, "must lie in (0, 90]")
_ID = (bool, "must be non-empty")
_POSITION = (lambda p: len(p) == 3, "must have 3 coordinates")
# the beam half-angle, divergence_mrad * 1e-3 rad, lies below pi/2
_DIVERGENCE = (lambda v: 0 < v * 1e-3 < math.pi / 2, "must lie in (0, 500 pi)")
_AXIS = (
    lambda a: a is None or (all(map(math.isfinite, a)) and any(a)),
    "must be a non-zero finite vector",
)


def _integer(lo, hi, text):
    """The rule of an integer in [lo, hi]; a float, even a whole one, breaks it."""
    return lambda v: isinstance(v, numbers.Integral) and lo <= v <= hi, text


def _one_of(*options):
    return options.__contains__, "must be " + " or ".join(map(repr, options))


def _check(config) -> None:
    """The ``__post_init__`` that :func:`_section` installs: each field must
    pass its rule.  A config does not know its place in a document, so the
    message names the field alone; loading a document prefixes the path."""
    for f in fields(config):
        test, text = f.metadata["rule"]
        if not test(getattr(config, f.name)):
            raise ScenarioError(f"{f.name}: {text}")


def _section(cls):
    """Declare a section or entry: a frozen dataclass that checks its rules."""
    setattr(cls, "__post_init__", _check)
    return dataclass(frozen=True)(cls)


@_section
class RoomConfig:
    """Rectangular room, corner at the origin, z up."""

    width_m: float = _rule(4.0, _POSITIVE)
    length_m: float = _rule(8.0, _POSITIVE)
    height_m: float = _rule(3.0, _POSITIVE)
    wall_reflectivity: float = _rule(0.8, _FRACTION)
    ceiling_reflectivity: float = _rule(0.8, _FRACTION)
    floor_reflectivity: float = _rule(0.3, _FRACTION)
    # cosine exponent of surface re-emission; 1 is ideal diffuse
    lambertian_mode: float = _rule(1.0, (lambda v: 1 <= v < math.inf, "must be at least 1"))


@_section
class ApConfig:
    id: str = _rule(MISSING, _ID)
    position_m: tuple[float, float, float] = _rule(MISSING, _POSITION)
    power_mw: float = _rule(1.0, _POSITIVE)
    divergence_mrad: float = _rule(2.1, _DIVERGENCE)
    max_steering_deg: float = _rule(40.0, _ANGLE)


@_section
class RelayConfig:
    id: str = _rule(MISSING, _ID)
    position_m: tuple[float, float, float] = _rule(MISSING, _POSITION)
    divergence_mrad: float = _rule(2.1, _DIVERGENCE)
    max_steering_deg: float = _rule(90.0, _ANGLE)
    area_cm2: float = _rule(1.0, _POSITIVE)
    fov_deg: float = _rule(90.0, _ANGLE)
    responsivity_a_per_w: float = _rule(0.5, _POSITIVE)
    # boresight; None means "face away from the nearest wall"
    axis: tuple[float, float, float] | None = _rule(None, _AXIS)


@_section
class UserConfig:
    id: str = _rule(MISSING, _ID)
    position_m: tuple[float, float, float] = _rule(MISSING, _POSITION)
    area_cm2: float = _rule(1.0, _POSITIVE)
    fov_deg: float = _rule(90.0, _ANGLE)
    responsivity_a_per_w: float = _rule(0.5, _POSITIVE)
    elevation_deg: float = _rule(90.0, (lambda v: 0 <= v <= 90, "must lie in [0, 90]"))
    azimuth_deg: float = _rule(0.0, (math.isfinite, "must be finite"))


@_section
class HumanConfig:
    height_m: float = _rule(1.8, _POSITIVE)
    radius_m: float = _rule(0.3, _POSITIVE)
    # 0 disables blockage
    count: int = _rule(1, _integer(0, 1, "only 0 or 1 blocking humans are modelled"))


@_section
class NoiseConfig:
    bandwidth_ghz: float = _rule(10.0, _POSITIVE)
    noise_density_a2hz: float = _rule(1e-24, _NON_NEGATIVE)
    background_current_a: float = _rule(0.0, _NON_NEGATIVE)


@_section
class NomaConfig:
    power_ratio: float = _rule(4.0, (lambda v: 1 < v < math.inf, "must exceed 1"))
    threshold_db: float = _rule(15.6, _POSITIVE)
    combining: str = _rule("summed", _one_of("summed", "per_branch"))


# Largest Monte Carlo sample count: 262,144 blocks of 16,384 samples.
MAX_SAMPLES = 2**32


@_section
class SamplerConfig:
    samples: int = _rule(100000, _integer(1, MAX_SAMPLES, f"must lie in [1, {MAX_SAMPLES}]"))
    seed: int = _rule(1, _integer(0, math.inf, "must be a non-negative integer"))
    blockage_model: str = _rule("joint", _one_of("joint", "independent"))


@_section
class ChannelConfig:
    max_bounces: int = _rule(2, _integer(0, 2, "must be 0, 1 or 2"))
    second_bounce_res_m: float = _rule(0.20, _POSITIVE)
    bin_ns: float = _rule(0.01, _POSITIVE)


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
        # the rules across sections and entries, whose fields check themselves
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
                if cfg.id in seen:
                    errors.append(f"{kind}[{i}].id: duplicate id {cfg.id!r}")
                seen.add(cfg.id)
                path = f"{kind}[{cfg.id}]"
                p = cfg.position_m
                if not all(0 <= v <= top for v, top in zip(p, extents)):
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
    ``cls``, or build a new ``cls`` from ``doc`` alone when ``base`` is None.
    A section's or entry's own error gains its path in the document."""
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
    try:
        return cls(**updates) if base is None else replace(base, **updates)
    except ScenarioError as exc:  # the scenario's own rules name their paths
        raise ScenarioError(f"{path}.{exc}" if path else str(exc)) from None


def _coerce(value, annotation, path: str, base=None):
    """Convert one document value to ``annotation``; ``base`` is the value a
    nested section merges into."""
    if annotation is int and type(value) is int:
        return value  # exact, where float() would round past 2**53
    if annotation is float or annotation is int:
        f = None
        # YAML reads on/off/yes/no/true/false as booleans, which float() takes as 1 or 0
        if not isinstance(value, bool):
            try:
                f = float(value)
            except (TypeError, ValueError, OverflowError):
                pass
        if f is not None and (annotation is float or f.is_integer()):
            return f if annotation is float else int(f)  # a float's rule judges NaN and inf
        what = "a number" if annotation is float else "an integer"
        raise ScenarioError(f"{path}: expected {what}, got {value!r}")
    if annotation is str:
        # a number is its text (id: 5 is "5"); null, a boolean or a list is no string
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ScenarioError(f"{path}: expected a string, got {value!r}")
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
    """Read a YAML scenario document and merge it into the defaults.  A
    document YAML cannot read raises :class:`ScenarioError` naming the file,
    the parser's problem and its line.  Parsing goes through libyaml when
    the installed PyYAML has it; construction is PyYAML's safe loader either
    way, so both read a document to the same values."""
    import yaml  # only scenario files need it; a run on the defaults never loads it

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            line = f": line {mark.line + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
            raise ScenarioError(f"{path}{line}: {problem}") from None
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path) -> None:
    import yaml

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
