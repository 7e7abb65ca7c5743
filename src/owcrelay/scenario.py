"""Scenario configuration: defaults, YAML round-trip, and result writers.

A scenario document is a plain mapping with the same shape as
:func:`Scenario.to_dict`.  Loading merges the document into the defaults,
rejects unknown keys by path, and coerces numeric fields through float so
scientific-notation strings survive YAML's parsing quirks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
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
    width_m: float = 4.0
    length_m: float = 8.0
    height_m: float = 3.0
    wall_reflectivity: float = 0.8
    ceiling_reflectivity: float = 0.8
    floor_reflectivity: float = 0.3
    lambertian_mode: float = 1.0


@dataclass(frozen=True)
class ApConfig:
    id: str
    position_m: tuple[float, float, float]
    power_mw: float = 1.0
    divergence_mrad: float = 2.1
    max_steering_deg: float = 40.0


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


@dataclass(frozen=True)
class UserConfig:
    id: str
    position_m: tuple[float, float, float]
    area_cm2: float = 1.0
    fov_deg: float = 90.0
    responsivity_a_per_w: float = 0.5
    elevation_deg: float = 90.0
    azimuth_deg: float = 0.0


@dataclass(frozen=True)
class HumanConfig:
    height_m: float = 1.8
    radius_m: float = 0.3
    count: int = 1  # 0 disables blockage; only a single blocker is modelled


@dataclass(frozen=True)
class NoiseConfig:
    bandwidth_ghz: float = 10.0
    noise_density_a2hz: float = 1e-24
    background_current_a: float = 0.0


@dataclass(frozen=True)
class NomaConfig:
    power_ratio: float = 4.0
    threshold_db: float = 15.6
    combining: str = "summed"


@dataclass(frozen=True)
class SamplerConfig:
    samples: int = 100000
    seed: int = 1
    blockage_model: str = "joint"


@dataclass(frozen=True)
class ChannelConfig:
    max_bounces: int = 2
    first_bounce_res_m: float = 0.05
    second_bounce_res_m: float = 0.20
    bin_ns: float = 0.01
    wavelength_nm: float = 850.0  # carried as metadata; nothing models dispersion


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

    def validate(self) -> None:
        errors: list[str] = []
        r = self.room
        if min(r.width_m, r.length_m, r.height_m) <= 0:
            errors.append("room: extents must be positive")
        for fname in ("wall_reflectivity", "ceiling_reflectivity", "floor_reflectivity"):
            v = getattr(r, fname)
            if not 0.0 <= v <= 1.0:
                errors.append(f"room.{fname}: must lie in [0, 1], got {v}")
        if r.lambertian_mode < 1:
            errors.append("room.lambertian_mode: must be at least 1")

        if not self.aps:
            errors.append("aps: at least one access point is required")
        if not self.users:
            errors.append("users: at least one user is required")

        def check_terminal(kind, label, cfg):
            path = f"{kind}[{label}]"
            p = cfg.position_m
            if len(p) != 3:
                errors.append(f"{path}.position_m: expected 3 coordinates")
                return
            if not (0 <= p[0] <= r.width_m and 0 <= p[1] <= r.length_m and 0 <= p[2] <= r.height_m):
                errors.append(
                    f"{path}.position_m: {list(p)} lies outside the room "
                    f"[0, {r.width_m}] x [0, {r.length_m}] x [0, {r.height_m}]"
                )

        for kind, items in (("aps", self.aps), ("relays", self.relays), ("users", self.users)):
            seen = set()
            for i, cfg in enumerate(items):
                if not cfg.id:
                    errors.append(f"{kind}[{i}].id: must be non-empty")
                if cfg.id in seen:
                    errors.append(f"{kind}[{i}].id: duplicate id {cfg.id!r}")
                seen.add(cfg.id)
                check_terminal(kind, cfg.id or i, cfg)

        for i, ap in enumerate(self.aps):
            if ap.power_mw <= 0:
                errors.append(f"aps[{i}].power_mw: must be positive")
            if ap.divergence_mrad <= 0:
                errors.append(f"aps[{i}].divergence_mrad: must be positive")
            if not 0 < ap.max_steering_deg <= 90:
                errors.append(f"aps[{i}].max_steering_deg: must lie in (0, 90]")
        for i, rl in enumerate(self.relays):
            if rl.power_mw <= 0:
                errors.append(f"relays[{i}].power_mw: must be positive")
            if rl.divergence_mrad <= 0:
                errors.append(f"relays[{i}].divergence_mrad: must be positive")
            if not 0 < rl.max_steering_deg <= 90:
                errors.append(f"relays[{i}].max_steering_deg: must lie in (0, 90]")
            if rl.area_cm2 <= 0 or rl.responsivity_a_per_w <= 0:
                errors.append(f"relays[{i}]: detector area and responsivity must be positive")
            if not 0 < rl.fov_deg <= 90:
                errors.append(f"relays[{i}].fov_deg: must lie in (0, 90]")
        for i, u in enumerate(self.users):
            if u.area_cm2 <= 0 or u.responsivity_a_per_w <= 0:
                errors.append(f"users[{i}]: detector area and responsivity must be positive")
            if not 0 < u.fov_deg <= 90:
                errors.append(f"users[{i}].fov_deg: must lie in (0, 90]")
            if not 0 <= u.elevation_deg <= 90:
                errors.append(f"users[{i}].elevation_deg: must lie in [0, 90]")

        if self.human.height_m <= 0 or self.human.radius_m <= 0:
            errors.append("human: height and radius must be positive")
        if self.human.height_m > r.height_m:
            errors.append("human.height_m: taller than the room")
        if self.human.count not in (0, 1):
            errors.append("human.count: only 0 or 1 blocking humans are modelled")
        if self.noise.bandwidth_ghz <= 0:
            errors.append("noise.bandwidth_ghz: must be positive")
        if self.noise.noise_density_a2hz < 0 or self.noise.background_current_a < 0:
            errors.append("noise: densities and currents must be non-negative")
        if self.noma.power_ratio <= 1:
            errors.append("noma.power_ratio: must exceed 1")
        if self.noma.threshold_db <= 0:
            errors.append("noma.threshold_db: must be positive")
        if self.noma.combining not in ("summed", "per_branch"):
            errors.append(f"noma.combining: unknown mode {self.noma.combining!r}")
        from owcrelay.outage import MAX_SAMPLES  # outage imports this module

        if not 1 <= self.sampler.samples <= MAX_SAMPLES:
            errors.append(f"sampler.samples: must lie in [1, {MAX_SAMPLES}]")
        if self.sampler.seed < 0:
            errors.append("sampler.seed: must be non-negative")
        if self.sampler.blockage_model not in ("joint", "independent"):
            errors.append(
                f"sampler.blockage_model: unknown model {self.sampler.blockage_model!r}"
            )
        if self.channel.max_bounces not in (0, 1, 2):
            errors.append("channel.max_bounces: must be 0, 1 or 2")
        if self.channel.first_bounce_res_m <= 0 or self.channel.second_bounce_res_m <= 0:
            errors.append("channel: grid resolutions must be positive")
        if self.channel.bin_ns <= 0:
            errors.append("channel.bin_ns: must be positive")
        if self.channel.wavelength_nm <= 0:
            errors.append("channel.wavelength_nm: must be positive")

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


_NUMERIC_SCALARS = {
    ("room",): {
        "width_m", "length_m", "height_m",
        "wall_reflectivity", "ceiling_reflectivity", "floor_reflectivity",
        "lambertian_mode",
    },
    ("human",): {"height_m", "radius_m"},
    ("noise",): {"bandwidth_ghz", "noise_density_a2hz", "background_current_a"},
    ("noma",): {"power_ratio", "threshold_db"},
    ("channel",): {"first_bounce_res_m", "second_bounce_res_m", "bin_ns", "wavelength_nm"},
}

_INT_SCALARS = {
    ("sampler",): {"samples", "seed"},
    ("channel",): {"max_bounces"},
    ("human",): {"count"},
}

_ENTRY_NUMERIC = {
    "aps": {"power_mw", "divergence_mrad", "max_steering_deg"},
    "relays": {
        "power_mw", "divergence_mrad", "max_steering_deg", "area_cm2", "fov_deg",
        "responsivity_a_per_w",
    },
    "users": {
        "area_cm2", "fov_deg", "responsivity_a_per_w",
        "elevation_deg", "azimuth_deg",
    },
}

_ENTRY_TYPES = {"aps": ApConfig, "relays": RelayConfig, "users": UserConfig}
_SECTION_TYPES = {
    "room": RoomConfig,
    "human": HumanConfig,
    "noise": NoiseConfig,
    "noma": NomaConfig,
    "sampler": SamplerConfig,
    "channel": ChannelConfig,
}


def _coerce_float(value, path: str, what: str = "a number") -> float:
    try:
        f = float(value)
        if math.isfinite(f):
            return f
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{path}: expected {what}, got {value!r}")


def _coerce_int(value, path: str) -> int:
    f = _coerce_float(value, path, "an integer")
    if not f.is_integer():
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return int(f)


def _coerce_position(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{path}: expected [x, y, z]")
    return tuple(_coerce_float(v, f"{path}[{i}]") for i, v in enumerate(value))


def _merge_section(section: str, base, doc: Any) -> Any:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{section}: expected a mapping")
    cls = _SECTION_TYPES[section]
    known = set(cls.__dataclass_fields__)
    updates = {}
    for key, value in doc.items():
        path = f"{section}.{key}"
        if key not in known:
            raise ScenarioError(f"unknown key: {path}")
        if key in _NUMERIC_SCALARS.get((section,), set()):
            updates[key] = _coerce_float(value, path)
        elif key in _INT_SCALARS.get((section,), set()):
            updates[key] = _coerce_int(value, path)
        else:
            updates[key] = str(value)
    return replace(base, **updates)


def _merge_entry(kind: str, index: int, doc: Any):
    cls = _ENTRY_TYPES[kind]
    path = f"{kind}[{index}]"
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a mapping")
    known = set(cls.__dataclass_fields__)
    if "id" not in doc or "position_m" not in doc:
        raise ScenarioError(f"{path}: 'id' and 'position_m' are required")
    kwargs = {}
    for key, value in doc.items():
        kp = f"{path}.{key}"
        if key not in known:
            raise ScenarioError(f"unknown key: {kp}")
        if key == "id":
            kwargs[key] = str(value)
        elif key == "position_m":
            kwargs[key] = _coerce_position(value, kp)
        elif key == "axis":
            kwargs[key] = None if value is None else _coerce_position(value, kp)
        elif key in _ENTRY_NUMERIC[kind]:
            kwargs[key] = _coerce_float(value, kp)
        else:
            kwargs[key] = str(value)
    return cls(**kwargs)


def _coerce_associations(value) -> dict[str, tuple[str, ...]] | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ScenarioError("associations: expected a mapping of ap id to user id list")
    out = {}
    for ap_id, uids in value.items():
        if not isinstance(uids, (list, tuple)):
            raise ScenarioError(f"associations[{ap_id}]: expected a list of user ids")
        out[str(ap_id)] = tuple(str(u) for u in uids)
    return out


def _coerce_pairings(value) -> dict[str, str] | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ScenarioError("relay_pairings: expected a mapping of relay id to ap id")
    return {str(rid): str(ap_id) for rid, ap_id in value.items()}


def scenario_from_dict(doc: Any) -> Scenario:
    """Build a scenario by merging a plain mapping into the defaults."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    base = default_scenario()
    updates: dict[str, Any] = {}
    for key, value in doc.items():
        if key == "name" or key == "description":
            updates[key] = str(value)
        elif key == "associations":
            updates[key] = _coerce_associations(value)
        elif key == "relay_pairings":
            updates[key] = _coerce_pairings(value)
        elif key in _SECTION_TYPES:
            updates[key] = _merge_section(key, getattr(base, key), value)
        elif key in _ENTRY_TYPES:
            if not isinstance(value, list):
                raise ScenarioError(f"{key}: expected a list")
            updates[key] = tuple(_merge_entry(key, i, e) for i, e in enumerate(value))
        else:
            raise ScenarioError(f"unknown key: {key}")
    scenario = replace(base, **updates)
    scenario.validate()
    return scenario


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
    records = []
    for row in rows:
        if isinstance(row, dict):
            rec = {k: row[k] for k in _RESULT_FIELDS}
        else:
            rec = {k: getattr(row, k) for k in _RESULT_FIELDS}
        records.append(rec)
    return records


def result_lines(rows) -> list[str]:
    """Header plus one comma-separated line per outage row, floats at 10
    significant digits.  The same lines back both stdout and CSV files, so
    the two are byte-for-byte interchangeable."""
    lines = [",".join(_RESULT_FIELDS)]
    for rec in _result_records(rows):
        lines.append(
            ",".join(
                [
                    str(rec["user_id"]),
                    str(rec["mode"]),
                    format(float(rec["p_out"]), ".10g"),
                    format(float(rec["stderr"]), ".10g"),
                    str(int(rec["n_samples"])),
                    format(float(rec["threshold_db"]), ".10g"),
                    str(int(rec["seed"])),
                ]
            )
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
                out = {
                    "user_id": rec["user_id"],
                    "mode": rec["mode"],
                    "p_out": _sig10(rec["p_out"]),
                    "stderr": _sig10(rec["stderr"]),
                    "n_samples": int(rec["n_samples"]),
                    "threshold_db": _sig10(rec["threshold_db"]),
                    "seed": int(rec["seed"]),
                }
                fh.write(json.dumps(out, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown result format {fmt!r}")
