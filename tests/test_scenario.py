import dataclasses
import math
import re
import typing
from pathlib import Path

import pytest
import yaml

from owcrelay.links import build_link_budget
from owcrelay.outage import OutageRow
from owcrelay.scenario import (
    MAX_SAMPLES,
    ApConfig,
    ChannelConfig,
    HumanConfig,
    NoiseConfig,
    NomaConfig,
    RelayConfig,
    RoomConfig,
    SamplerConfig,
    Scenario,
    ScenarioError,
    UserConfig,
    default_scenario,
    load_scenario,
    result_lines,
    save_scenario,
    write_results,
)
from owcrelay.scenario import scenario_from_dict

from conftest import MALFORMED_YAML

TESTS = Path(__file__).resolve().parent


def _lookup(scenario, path):
    """Resolve a dotted path like ``aps[0].position_m``."""
    obj = scenario
    for part in path.split("."):
        m = re.fullmatch(r"(\w+)\[(\d+)\]", part)
        if m:
            obj = getattr(obj, m.group(1))[int(m.group(2))]
        else:
            obj = getattr(obj, part)
    return obj


def _document_with(sc, kind, index, **changes):
    """Load a document listing the ``kind`` entries of ``sc``, with entry
    ``index`` changed."""
    entries = [dataclasses.asdict(entry) for entry in getattr(sc, kind)]
    entries[index].update(changes)
    return scenario_from_dict({kind: entries})


# every deployment number of the shipped default, each at one canonical field
DEFAULT_AUDIT = [
    ("room.width_m", 4.0),
    ("room.length_m", 8.0),
    ("room.height_m", 3.0),
    ("room.wall_reflectivity", 0.8),
    ("room.ceiling_reflectivity", 0.8),
    ("room.floor_reflectivity", 0.3),
    ("aps[0].position_m", (1.0, 1.0, 3.0)),
    ("aps[1].position_m", (1.0, 3.0, 3.0)),
    ("aps[2].position_m", (1.0, 5.0, 3.0)),
    ("aps[3].position_m", (1.0, 7.0, 3.0)),
    ("aps[4].position_m", (3.0, 1.0, 3.0)),
    ("aps[5].position_m", (3.0, 3.0, 3.0)),
    ("aps[6].position_m", (3.0, 5.0, 3.0)),
    ("aps[7].position_m", (3.0, 7.0, 3.0)),
    ("aps[0].power_mw", 1.0),
    ("aps[0].divergence_mrad", 2.1),
    ("relays[0].position_m", (0.0, 1.0, 1.5)),
    ("relays[1].position_m", (0.0, 3.0, 1.5)),
    ("relays[2].position_m", (0.0, 5.0, 1.5)),
    ("relays[3].position_m", (0.0, 7.0, 1.5)),
    ("relays[4].position_m", (4.0, 1.0, 1.5)),
    ("relays[5].position_m", (4.0, 3.0, 1.5)),
    ("relays[6].position_m", (4.0, 5.0, 1.5)),
    ("relays[7].position_m", (4.0, 7.0, 1.5)),
    ("users[0].position_m", (1.0, 1.0, 1.0)),
    ("users[1].position_m", (1.0, 4.0, 1.0)),
    ("users[2].position_m", (1.0, 7.0, 1.0)),
    ("users[3].position_m", (2.0, 1.0, 1.0)),
    ("users[4].position_m", (2.0, 4.0, 1.0)),
    ("users[5].position_m", (2.0, 7.0, 1.0)),
    ("users[0].area_cm2", 1.0),
    ("users[0].fov_deg", 90.0),
    ("users[0].responsivity_a_per_w", 0.5),
    ("human.height_m", 1.8),
    ("human.radius_m", 0.3),
    ("noise.bandwidth_ghz", 10.0),
    ("noma.power_ratio", 4.0),
    ("noma.threshold_db", 15.6),
    ("channel.max_bounces", 2),
    ("channel.second_bounce_res_m", 0.20),
    ("channel.bin_ns", 0.01),
]


def _config_fields():
    """(top-level key, is an entry list, config class, field name, annotation,
    range rule) for every field of the nine section and entry dataclasses."""
    for key, hint in typing.get_type_hints(Scenario).items():
        entry = typing.get_origin(hint) is tuple
        cls = typing.get_args(hint)[0] if entry else hint
        if dataclasses.is_dataclass(cls):
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                yield key, entry, cls, f.name, hints[f.name], f.metadata.get("rule")


def _numeric_fields():
    """(top-level key, is an entry list, config class, field name) for every
    numeric field of every section and entry dataclass of a scenario."""
    for key, entry, cls, name, annotation, _ in _config_fields():
        if annotation in (float, int):
            yield key, entry, cls, name


# a value that breaks each rule that is not about a number; every number
# breaks its rule as NaN
BREAKS = {
    "id": "",
    "position_m": (1.0, 2.0),
    "axis": (0.0, 0.0, 0.0),
    "combining": "",
    "blockage_model": "",
}


class TestDefaults:
    def test_shape(self, default_sc):
        assert len(default_sc.aps) == 8
        assert len(default_sc.relays) == 8
        assert len(default_sc.users) == 6
        assert default_sc.aps[0].position_m == (1.0, 1.0, 3.0)
        assert default_sc.noma.threshold_db == 15.6
        # built again, the scenario passes every cross-section rule again
        assert dataclasses.replace(default_sc) == default_sc

    def test_numeric_audit(self, default_sc):
        paths = [p for p, _ in DEFAULT_AUDIT]
        assert len(set(paths)) == len(paths)
        for path, expected in DEFAULT_AUDIT:
            assert _lookup(default_sc, path) == expected, path

    def test_terminal_fields_uniform(self, default_sc):
        # the per-entry audit rows above stand for every entry
        assert {ap.power_mw for ap in default_sc.aps} == {1.0}
        assert {ap.divergence_mrad for ap in default_sc.aps} == {2.1}
        assert {u.area_cm2 for u in default_sc.users} == {1.0}
        assert {u.fov_deg for u in default_sc.users} == {90.0}
        assert {u.responsivity_a_per_w for u in default_sc.users} == {0.5}
        assert {r.position_m[2] for r in default_sc.relays} == {1.5}

    def test_no_overrides_by_default(self, default_sc):
        assert default_sc.associations is None
        assert default_sc.relay_pairings is None

    @pytest.mark.parametrize(
        "entry, cls",
        [
            pytest.param(entry, cls, id=key)
            for key, entry, cls in dict.fromkeys(f[:3] for f in _config_fields())
        ],
    )
    def test_sections_are_frozen_and_hashable(self, entry, cls):
        # the channel's caches key on the room and the terminal entries
        terminal = {"id": "t1", "position_m": (2.0, 4.0, 2.0)} if entry else {}
        config = cls(**terminal)
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))
        hash(config)


class TestRoundTrip:
    def test_save_load_identity(self, default_sc, tmp_path):
        path = tmp_path / "scenario.yaml"
        save_scenario(default_sc, path)
        assert load_scenario(path) == default_sc

    def test_save_load_with_overrides(self, tmp_path):
        sc = dataclasses.replace(
            default_scenario(),
            name="custom",
            associations={"ap1": ("u1", "u4")},
            relay_pairings={"r1": "ap1"},
        )
        path = tmp_path / "custom.yaml"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again.associations == {"ap1": ("u1", "u4")}
        assert again.relay_pairings == {"r1": "ap1"}
        assert again == sc

    def test_empty_document_is_default(self, tmp_path, default_sc):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_scenario(path) == default_sc
        assert scenario_from_dict(None) == default_sc
        assert scenario_from_dict({}) == default_sc

    def test_partial_document_merges(self):
        sc = scenario_from_dict({"noma": {"threshold_db": 12.0}})
        assert sc.noma.threshold_db == 12.0
        assert sc.noma.power_ratio == 4.0
        assert len(sc.aps) == 8

    def test_entry_list_replaces_not_appends(self):
        sc = scenario_from_dict(
            {"users": [{"id": "only", "position_m": [2.0, 4.0, 1.0]}]}
        )
        assert len(sc.users) == 1
        assert sc.users[0].id == "only"

    def test_numeric_strings_coerce(self):
        sc = scenario_from_dict({"noise": {"noise_density_a2hz": "1e-24"}})
        assert sc.noise.noise_density_a2hz == 1e-24
        sc = scenario_from_dict({"sampler": {"samples": 1e5}})
        assert sc.sampler.samples == 100000

    def test_large_integer_loads_exactly(self, tmp_path):
        # 2**53 + 1 is not a float: a detour through float() gives 2**53
        doc = tmp_path / "seed.yaml"
        doc.write_text("sampler: {seed: 9007199254740993}\n")
        assert load_scenario(doc).sampler.seed == 9007199254740993

    @pytest.mark.parametrize(
        "key, entry, cls, name",
        [pytest.param(*f, id=f"{f[0]}.{f[3]}") for f in _numeric_fields()],
    )
    def test_every_numeric_field_coerces_to_its_annotation(self, key, entry, cls, name):
        default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
        doc = {name: str(default)}  # e.g. "100000" or "0.05"
        if entry:
            # no default terminal stands here; one of another kind at x1's point is rejected
            sc = scenario_from_dict({key: [{"id": "x1", "position_m": [2.0, 4.0, 2.0], **doc}]})
            value = getattr(getattr(sc, key)[0], name)
        else:
            value = getattr(getattr(scenario_from_dict({key: doc}), key), name)
        assert value == default
        assert type(value) is typing.get_type_hints(cls)[name]


def _saved_documents(tmp_path):
    """The scenario files of the tests, and documents written by save_scenario."""
    custom = dataclasses.replace(
        default_scenario(), associations={"ap1": ("u1", "u4")}, relay_pairings={"r1": "ap1"}
    )
    saved = []
    for name, sc in (("default", default_scenario()), ("custom", custom)):
        saved.append(tmp_path / f"{name}.yaml")
        save_scenario(sc, saved[-1])
    return sorted(TESTS.glob("*.yaml")) + saved


# comparing the two parsers needs a PyYAML built with libyaml
needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="PyYAML is built without libyaml"
)


class TestParsers:
    # load_scenario parses through libyaml when PyYAML has it, and through
    # PyYAML's own parser when it has not; both must read every document alike

    def test_libyaml_parses_when_installed(self, monkeypatch):
        loaders = []

        class Recording(yaml.SafeLoader):
            def __init__(self, stream):
                loaders.append(type(self))
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Recording, raising=False)
        load_scenario(TESTS / "tilted.yaml")
        assert loaders == [Recording]

    @needs_libyaml
    def test_documents_load_alike(self, tmp_path, monkeypatch):
        paths = _saved_documents(tmp_path)
        assert len(paths) >= 4
        fast = [load_scenario(p) for p in paths]
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert [load_scenario(p) for p in paths] == fast

    @needs_libyaml
    @MALFORMED_YAML
    def test_malformed_documents_name_the_same_line(
        self, tmp_path, monkeypatch, doc, line, command
    ):
        path = tmp_path / "broken.yaml"
        path.write_text(doc)
        with pytest.raises(ScenarioError) as fast:
            load_scenario(path)
        monkeypatch.delattr(yaml, "CSafeLoader")
        with pytest.raises(ScenarioError) as pure:
            load_scenario(path)
        for err in (fast, pure):
            assert str(err.value).startswith(f"{path}: line {line}: ")


class TestRejection:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key: beams"):
            scenario_from_dict({"beams": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ScenarioError, match="unknown key: noma.thresh"):
            scenario_from_dict({"noma": {"thresh": 10}})

    def test_entry_requires_id_and_position(self):
        with pytest.raises(ScenarioError, match="required"):
            scenario_from_dict({"users": [{"position_m": [1, 1, 1]}]})

    def test_position_outside_room_names_user_and_bounds(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict({"users": [{"id": "u1", "position_m": [9, 1, 1]}]})
        msg = str(err.value)
        assert "users[u1].position_m" in msg
        assert "[0, 4.0]" in msg

    def test_bad_number(self):
        # a value that is no number of the field's type is refused by path as
        # it is read; a float's NaN or infinity is refused by the field's rule
        for section, key, value, message in [
            ("noma", "threshold_db", "lots", "expected a number, got 'lots'"),
            ("sampler", "samples", 1.5, "expected an integer, got 1.5"),
            ("noma", "threshold_db", float("nan"), "must be positive"),
            ("noma", "power_ratio", float("nan"), "must exceed 1"),
            ("noise", "bandwidth_ghz", float("inf"), "must be positive"),
            ("room", "width_m", "-inf", "must be positive"),
            ("sampler", "samples", float("inf"), "expected an integer, got inf"),
            ("sampler", "seed", float("nan"), "expected an integer, got nan"),
            ("human", "count", False, "expected an integer, got False"),
            ("room", "width_m", True, "expected a number, got True"),
        ]:
            with pytest.raises(ScenarioError) as err:
                scenario_from_dict({section: {key: value}})
            assert str(err.value) == f"{section}.{key}: {message}"

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                "users: [{id: , position_m: [1.0, 1.0, 1.0]}]\n",
                "users[0].id: expected a string, got None",
            ),
            (
                "users: [{id: [u1], position_m: [1.0, 1.0, 1.0]}]\n",
                "users[0].id: expected a string, got ['u1']",
            ),
            (
                "users: [{id: yes, position_m: [1.0, 1.0, 1.0]}]\n",
                "users[0].id: expected a string, got True",
            ),
            ("name:\n", "name: expected a string, got None"),
        ],
        ids=["null-id", "list-id", "boolean-id", "null-name"],
    )
    def test_null_or_list_is_no_string(self, tmp_path, document, message):
        # a value that YAML reads as null, a list or a boolean names nothing
        path = tmp_path / "strings.yaml"
        path.write_text(document)
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert str(err.value) == message

    def test_number_is_its_text(self):
        sc = scenario_from_dict({"users": [{"id": 5, "position_m": [1.0, 1.0, 1.0]}]})
        assert sc.users[0].id == "5"

    def test_sample_count_cap(self, tmp_path):
        doc = tmp_path / "big.yaml"
        doc.write_text(f"sampler: {{samples: {MAX_SAMPLES + 1}}}\n")
        with pytest.raises(ScenarioError, match=rf"sampler\.samples: must lie in \[1, {MAX_SAMPLES}\]"):
            load_scenario(doc)
        doc.write_text(f"sampler: {{samples: {MAX_SAMPLES}}}\n")
        assert load_scenario(doc).sampler.samples == MAX_SAMPLES

    def test_referential_integrity(self, default_sc):
        # a scenario checks its maps when it is built
        with pytest.raises(ScenarioError, match=r"associations\[zz\]: unknown access point"):
            dataclasses.replace(default_sc, associations={"zz": ("u1",)})
        with pytest.raises(ScenarioError, match="unknown user"):
            dataclasses.replace(default_sc, associations={"ap1": ("nobody",)})
        with pytest.raises(ScenarioError, match=r"relay_pairings\[zz\]: unknown relay"):
            dataclasses.replace(default_sc, relay_pairings={"zz": "ap1"})
        with pytest.raises(ScenarioError, match="unknown access point"):
            dataclasses.replace(default_sc, relay_pairings={"r1": "zz"})

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda sc: scenario_from_dict({"human": {"count": 2}}), "human.count"),
            (
                lambda sc: dataclasses.replace(
                    sc, noma=dataclasses.replace(sc.noma, threshold_db=0.0)
                ),
                "threshold_db",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, room=dataclasses.replace(sc.room, lambertian_mode=0.5)
                ),
                "lambertian_mode",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, channel=dataclasses.replace(sc.channel, max_bounces=3)
                ),
                "max_bounces",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, human=dataclasses.replace(sc.human, height_m=3.5)
                ),
                "taller",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, sampler=dataclasses.replace(sc.sampler, blockage_model="markov")
                ),
                "blockage_model",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, noma=dataclasses.replace(sc.noma, combining="coherent")
                ),
                "combining",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, aps=sc.aps + (ApConfig("ap1", (2.0, 2.0, 3.0)),)
                ),
                "duplicate",
            ),
            (
                # a relay and a user may not share an id either
                lambda sc: dataclasses.replace(sc, relays=(RelayConfig("u1", (0.0, 1.0, 1.5)),)),
                r"^users\[0\]\.id: duplicate id 'u1'$",
            ),
            (lambda sc: dataclasses.replace(sc, users=()), "at least one user"),
            # an entry checks its own numbers while the document loads, and
            # the message names the entry by its place in the list
            (
                lambda sc: _document_with(sc, "relays", 0, axis=(0.0, 0.0, 0.0)),
                r"^relays\[0\]\.axis: must be a non-zero finite vector$",
            ),
            (
                lambda sc: _document_with(sc, "aps", 0, power_mw=0.0),
                r"^aps\[0\]\.power_mw: must be positive$",
            ),
            (
                # a relay's transmit level is no parameter of the model
                lambda sc: _document_with(sc, "relays", 0, power_mw=5.0),
                r"^unknown key: relays\[0\]\.power_mw$",
            ),
            (
                lambda sc: _document_with(sc, "users", 1, fov_deg=120.0),
                r"^users\[1\]\.fov_deg: must lie in \(0, 90\]$",
            ),
            (
                # a half-angle of 2 rad is no beam
                lambda sc: _document_with(sc, "aps", 0, divergence_mrad=2000.0),
                r"^aps\[0\]\.divergence_mrad: must lie in \(0, 500 pi\)$",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, users=(dataclasses.replace(sc.users[0], position_m=(1.0, 1.0, 3.0)),)
                ),
                r"^users\[u1\]\.position_m: coincides with aps\[ap1\]$",
            ),
            (
                lambda sc: dataclasses.replace(
                    sc, users=(dataclasses.replace(sc.users[0], position_m=(0.0, 1.0, 1.5)),)
                ),
                r"^users\[u1\]\.position_m: coincides with relays\[r1\]$",
            ),
            (
                # with an explicit map too
                lambda sc: dataclasses.replace(
                    sc,
                    relays=(RelayConfig("r1", (1.0, 3.0, 3.0)),),
                    associations={"ap2": ("u1",)},
                ),
                r"^relays\[r1\]\.position_m: coincides with aps\[ap2\]$",
            ),
        ],
    )
    def test_validation_failures(self, default_sc, mutate, fragment):
        # the bad section, entry or scenario raises where it is built
        with pytest.raises(ScenarioError, match=fragment):
            mutate(default_sc)

    @pytest.mark.parametrize(
        "entry, changes, message",
        [
            (ApConfig, {"power_mw": 0.0}, "power_mw: must be positive"),
            (UserConfig, {"fov_deg": 120.0}, "fov_deg: must lie in (0, 90]"),
            (ApConfig, {"divergence_mrad": 2000.0}, "divergence_mrad: must lie in (0, 500 pi)"),
            (RelayConfig, {"axis": (0.0, 0.0, 0.0)}, "axis: must be a non-zero finite vector"),
            (RelayConfig, {"axis": (1.0, math.nan, 0.0)}, "axis: must be a non-zero finite vector"),
            (UserConfig, {"azimuth_deg": math.nan}, "azimuth_deg: must be finite"),
            (ApConfig, {"power_mw": math.inf}, "power_mw: must be positive"),
        ],
        ids=["power", "fov", "divergence", "zero-axis", "nan-axis", "nan-azimuth", "inf-power"],
    )
    def test_entries_check_themselves(self, entry, changes, message):
        # the rule that guards documents guards library calls too; an entry
        # does not know its place in a list, so it names the field alone
        with pytest.raises(ScenarioError) as direct:
            entry("t1", (0.0, 2.0, 1.5), **changes)
        assert str(direct.value) == message

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                "relays: [{id: r1, position_m: [0.0, 1.0, 1.5], axis: [1, .nan, 0]}]\n",
                # NaN is a number, which the relay's axis rule refuses
                "relays[0].axis: must be a non-zero finite vector",
            ),
            (
                # several bad entries: the load stops at the first
                "aps:\n"
                "- {id: a1, position_m: [1.0, 1.0, 3.0]}\n"
                "- {id: a2, position_m: [1.0, 3.0, 3.0], divergence_mrad: 2000}\n"
                "- {id: a3, position_m: [1.0, 5.0, 3.0], power_mw: 0}\n",
                "aps[1].divergence_mrad: must lie in (0, 500 pi)",
            ),
        ],
        ids=["nan-axis", "first-of-two"],
    )
    def test_document_names_the_bad_entry_by_path(self, tmp_path, document, message):
        path = tmp_path / "bad.yaml"
        path.write_text(document)
        with pytest.raises(ScenarioError) as loaded:
            load_scenario(path)
        assert str(loaded.value) == message

    def test_zero_humans_is_valid(self, default_sc):
        assert dataclasses.replace(default_sc, human=HumanConfig(count=0)).human.count == 0

    def test_terminals_of_one_kind_may_coincide(self, default_sc):
        # two sources, or two users, at one point form no link between them
        sc = dataclasses.replace(
            default_sc,
            aps=default_sc.aps + (ApConfig("ap9", default_sc.aps[0].position_m),),
            users=default_sc.users + (UserConfig("u7", default_sc.users[0].position_m),),
        )
        budget = build_link_budget(sc)
        twin = budget.links[budget.link_index("ap9", "u7")]
        assert twin.h == budget.links[budget.link_index("ap1", "u1")].h > 0.0

    @pytest.mark.parametrize(
        "section, kwargs, message",
        [
            (RoomConfig, {"width_m": 0.0}, "room.width_m: must be positive"),
            (
                RoomConfig,
                {"floor_reflectivity": 1.5},
                "room.floor_reflectivity: must lie in [0, 1]",
            ),
            (RoomConfig, {"lambertian_mode": 0.5}, "room.lambertian_mode: must be at least 1"),
            (HumanConfig, {"radius_m": -0.1}, "human.radius_m: must be positive"),
            (NoiseConfig, {"bandwidth_ghz": 0.0}, "noise.bandwidth_ghz: must be positive"),
            (HumanConfig, {"count": 2}, "human.count: only 0 or 1 blocking humans are modelled"),
            (RoomConfig, {"width_m": math.inf}, "room.width_m: must be positive"),
            (
                NoiseConfig,
                {"noise_density_a2hz": math.inf},
                "noise.noise_density_a2hz: must be non-negative",
            ),
            (NomaConfig, {"threshold_db": 0.0}, "noma.threshold_db: must be positive"),
            (NomaConfig, {"threshold_db": math.nan}, "noma.threshold_db: must be positive"),
            (NomaConfig, {"threshold_db": math.inf}, "noma.threshold_db: must be positive"),
            (NomaConfig, {"power_ratio": 1.0}, "noma.power_ratio: must exceed 1"),
            (NomaConfig, {"power_ratio": math.nan}, "noma.power_ratio: must exceed 1"),
            (
                NomaConfig,
                {"combining": "coherent"},
                "noma.combining: must be 'summed' or 'per_branch'",
            ),
            (SamplerConfig, {"samples": 0}, f"sampler.samples: must lie in [1, {MAX_SAMPLES}]"),
            (SamplerConfig, {"seed": -1}, "sampler.seed: must be a non-negative integer"),
            (SamplerConfig, {"seed": math.nan}, "sampler.seed: must be a non-negative integer"),
            (
                SamplerConfig,
                {"blockage_model": "markov"},
                "sampler.blockage_model: must be 'joint' or 'independent'",
            ),
            (ChannelConfig, {"max_bounces": 3}, "channel.max_bounces: must be 0, 1 or 2"),
            (
                ChannelConfig,
                {"second_bounce_res_m": 0.0},
                "channel.second_bounce_res_m: must be positive",
            ),
            (ChannelConfig, {"bin_ns": 0.0}, "channel.bin_ns: must be positive"),
            (ChannelConfig, {"bin_ns": math.nan}, "channel.bin_ns: must be positive"),
            (ChannelConfig, {"bin_ns": math.inf}, "channel.bin_ns: must be positive"),
        ],
    )
    def test_sections_check_themselves(self, section, kwargs, message):
        # the same rule guards library calls, which name the field, and
        # documents, which name its path
        key = {
            RoomConfig: "room", HumanConfig: "human", NoiseConfig: "noise",
            NomaConfig: "noma", SamplerConfig: "sampler", ChannelConfig: "channel",
        }[section]
        with pytest.raises(ScenarioError) as direct:
            section(**kwargs)
        assert f"{key}.{direct.value}" == message
        with pytest.raises(ScenarioError) as loaded:
            scenario_from_dict({key: kwargs})
        (name, value), = kwargs.items()
        if isinstance(value, float) and typing.get_type_hints(section)[name] is int:
            # a float is no integer: a document refuses it as it is read
            assert str(loaded.value) == f"{key}.{name}: expected an integer, got {value!r}"
        else:
            assert str(loaded.value) == message

    @pytest.mark.parametrize(
        "key, entry, cls, name, annotation, rule",
        [pytest.param(*f, id=f"{f[0]}.{f[3]}") for f in _config_fields()],
    )
    def test_every_field_states_its_rule(self, key, entry, cls, name, annotation, rule):
        # a document hands NaN to a float field as it is, so every field,
        # numbers first, needs its own rule
        assert rule is not None
        message = f"{name}: {rule[1]}"
        bad = BREAKS.get(name, math.nan)
        terminal = {"id": "t1", "position_m": (2.0, 4.0, 2.0)} if entry else {}
        with pytest.raises(ScenarioError) as direct:
            cls(**{**terminal, name: bad})
        assert str(direct.value) == message
        if name == "position_m":
            return  # a document refuses all but 3 coordinates as it reads them
        if annotation is int:
            bad = -1  # NaN is no integer, which a document refuses as it reads it
        doc, path = ([{**terminal, name: bad}], f"{key}[0]") if entry else ({name: bad}, key)
        with pytest.raises(ScenarioError) as loaded:
            scenario_from_dict({key: doc})
        assert str(loaded.value) == f"{path}.{message}"


SAMPLE_ROWS = [
    OutageRow("u1", "direct", 0.0064534736973, 0.0, 0, 15.6, 0),
    OutageRow("u1", "coop", 8.256260e-05, 1.25e-05, 1000000, 15.6, 7),
]


class TestResultWriters:
    def test_result_lines_header_and_rows(self):
        lines = result_lines(SAMPLE_ROWS)
        assert lines[0] == "user_id,mode,p_out,stderr,n_samples,threshold_db,seed"
        assert lines[1] == "u1,direct,0.006453473697,0,0,15.6,0"
        assert lines[2] == "u1,coop,8.25626e-05,1.25e-05,1000000,15.6,7"

    def test_dict_rows_accepted(self):
        rows = [
            {
                "user_id": "u2", "mode": "direct", "p_out": 0.5, "stderr": 0.1,
                "n_samples": 10, "threshold_db": 15.6, "seed": 3,
            }
        ]
        assert result_lines(rows)[1] == "u2,direct,0.5,0.1,10,15.6,3"

    def test_csv_writes_are_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_results(SAMPLE_ROWS, a)
        write_results(SAMPLE_ROWS, b)
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()
        assert a.read_text().splitlines() == result_lines(SAMPLE_ROWS)

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        assert path.read_text() == "user_id,mode,p_out,stderr,n_samples,threshold_db,seed\n"

    def test_jsonl_sorted_and_rounded(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_results(SAMPLE_ROWS, path, fmt="jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            '{"mode": "direct", "n_samples": 0, "p_out": 0.006453473697,'
            ' "seed": 0, "stderr": 0.0, "threshold_db": 15.6, "user_id": "u1"}'
        )

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            write_results(SAMPLE_ROWS, tmp_path / "x.bin", fmt="parquet")

    def test_saved_scenario_is_valid_yaml(self, default_sc, tmp_path):
        path = tmp_path / "doc.yaml"
        save_scenario(default_sc, path)
        doc = yaml.safe_load(path.read_text())
        assert doc["noma"]["threshold_db"] == 15.6
        assert doc["aps"][0]["id"] == "ap1"
