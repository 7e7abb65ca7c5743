import sys
from pathlib import Path

import pytest

from owcrelay.links import build_link_budget
from owcrelay.outage import ensure_marginals
from owcrelay.scenario import (
    ApConfig,
    Scenario,
    UserConfig,
    default_scenario,
    load_scenario,
    scenario_from_dict,
)

# Documents YAML cannot read, each with the line its error names and a
# subcommand that reads it.
MALFORMED_YAML = pytest.mark.parametrize(
    "doc,line,command",
    [
        ("room: {width_m: [1\n", 2, "simulate"),
        ("room:\n\twidth_m: 4.0\n", 2, "channel"),
        ("room: !!python/object:os.system {}\n", 1, "pdf"),
    ],
    ids=["unclosed-flow", "tab-indent", "python-tag"],
)


@pytest.fixture(scope="session")
def default_sc():
    return default_scenario()


@pytest.fixture(scope="session")
def dense_room(tmp_path_factory):
    """The benchmark's generated 93-link room at a given seed, written by
    its own generator."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    folder = tmp_path_factory.mktemp("dense")

    def room(seed: int) -> Scenario:
        path = folder / f"dense{seed}.yaml"
        if not path.exists():
            workloads.write_dense_scenario(seed, path)
        return load_scenario(path)

    return room


@pytest.fixture(scope="session")
def dense_seed_3(dense_room):
    return dense_room(3)


@pytest.fixture(scope="session")
def budget(default_sc):
    return build_link_budget(default_sc)


@pytest.fixture(scope="session")
def marginals(budget):
    return ensure_marginals(budget)


def make_single_link_scenario() -> Scenario:
    """One ceiling source straight above one user; no relays.

    The unblocked SINR is far above threshold, so outage happens exactly
    when the vertical link is blocked.
    """
    return Scenario(
        name="single-link",
        aps=(ApConfig(id="ap1", position_m=(1.0, 1.0, 3.0)),),
        relays=(),
        users=(UserConfig(id="u1", position_m=(1.0, 1.0, 1.0)),),
    )


@pytest.fixture(scope="session")
def single_link_budget():
    return build_link_budget(make_single_link_scenario())


def make_noise_free_scenario() -> Scenario:
    """The default room with noise-free receivers and only u1 served: no
    source reaches u2 to u6, so their noise floor is 0."""
    return scenario_from_dict(
        {"noise": {"noise_density_a2hz": 0.0}, "associations": {"ap1": ["u1"]}}
    )
