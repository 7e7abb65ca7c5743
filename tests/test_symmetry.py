"""The rectangle's own symmetries as oracles that need no reference value.

Mirroring the room in x or in y, turning it by pi, or swapping its axes
moves every terminal but keeps every distance, so each link must keep its
id, its line-of-sight and reflected gains, its blocking probability and
every outage row.  Each relay's explicit ``axis`` and each user's
``azimuth_deg`` turn with its position.
"""

import dataclasses
import math
from pathlib import Path

import pytest

from owcrelay.links import build_link_budget
from owcrelay.outage import ensure_marginals, outage_independent_approx, outage_monte_carlo
from owcrelay.scenario import default_scenario, load_scenario

HERE = Path(__file__).parent

# each map's image of a point in a W x L room; a direction, such as a relay
# axis, goes through its linear part, the image with W = L = 0
MAPS = {
    "x-mirror": lambda p, w, l: (w - p[0], p[1], p[2]),
    "y-mirror": lambda p, w, l: (p[0], l - p[1], p[2]),
    "rotation": lambda p, w, l: (w - p[0], l - p[1], p[2]),
    "transpose": lambda p, w, l: (p[1], p[0], p[2]),
}
# and of a user's azimuth, in degrees from the x axis
AZIMUTHS = {
    "x-mirror": lambda a: 180.0 - a,
    "y-mirror": lambda a: -a,
    "rotation": lambda a: 180.0 + a,
    "transpose": lambda a: 90.0 - a,
}

# enough joint samples to compare rows at 4 standard errors, few enough to
# keep twenty estimates quick
JOINT_SAMPLES = 65_536


def mapped(scenario, name):
    """The scenario under one of the four maps, every id kept."""
    room = scenario.room
    w, l = room.width_m, room.length_m
    where = MAPS[name]
    if name == "transpose":
        room = dataclasses.replace(room, width_m=l, length_m=w)

    def move(entry, **changes):
        return dataclasses.replace(entry, position_m=where(entry.position_m, w, l), **changes)

    return dataclasses.replace(
        scenario,
        room=room,
        aps=tuple(move(ap) for ap in scenario.aps),
        relays=tuple(
            move(r, axis=None if r.axis is None else where(r.axis, 0.0, 0.0))
            for r in scenario.relays
        ),
        users=tuple(move(u, azimuth_deg=AZIMUTHS[name](u.azimuth_deg)) for u in scenario.users),
    )


@pytest.fixture(scope="module", params=["default", "dense_tile", "tilted", "dense-seed-3"])
def room_answers(request):
    """The scenario's links, marginals, exact rows and joint MC rows."""
    if request.param == "default":
        scenario = default_scenario()
    elif request.param == "dense-seed-3":
        scenario = request.getfixturevalue("dense_seed_3")
    else:
        scenario = load_scenario(HERE / f"{request.param}.yaml")
    return scenario, answers(scenario)


def answers(scenario):
    budget = build_link_budget(scenario)
    links = {ln.link_id: ln for ln in budget.links}
    marginals = dict(zip(links, ensure_marginals(budget)))
    exact = outage_independent_approx(budget).rows
    joint = outage_monte_carlo(
        budget, n_samples=JOINT_SAMPLES, master_seed=5, blockage_model="joint"
    ).rows
    return links, marginals, exact, joint


@pytest.mark.parametrize("name", MAPS)
def test_maps_move_no_number(room_answers, name):
    scenario, (links, marginals, exact, joint) = room_answers
    image_links, image_marginals, image_exact, image_joint = answers(mapped(scenario, name))
    assert list(image_links) == list(links)
    for link_id, ln in links.items():
        image = image_links[link_id]
        assert (image.tx_id, image.rx_id, image.kind) == (ln.tx_id, ln.rx_id, ln.kind)
        for gain in ("h_los", "h_reflected"):
            assert getattr(image, gain) == pytest.approx(getattr(ln, gain), rel=1e-12, abs=0.0)
        assert image_marginals[link_id] == pytest.approx(marginals[link_id], rel=1e-12, abs=0.0)
    for row, image in zip(exact, image_exact, strict=True):
        assert (image.user_id, image.mode) == (row.user_id, row.mode)
        assert image.p_out == pytest.approx(row.p_out, rel=1e-12, abs=0.0)
    # the sampler draws a mapped room's walker at other points
    for row, image in zip(joint, image_joint, strict=True):
        assert (image.user_id, image.mode) == (row.user_id, row.mode)
        assert abs(image.p_out - row.p_out) <= 4.0 * math.hypot(row.stderr, image.stderr)
