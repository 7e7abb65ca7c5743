"""Indoor optical wireless link simulator with beam-steered access points,
a moving human blocker, and optical relay cooperation.

The package is organised around six areas:

- :mod:`owcrelay.geometry`   the floor region of walker positions that block
  each link, the one place blockage is decided,
- :mod:`owcrelay.channel`    narrow-beam and Lambertian propagation, surface
  discretisation, unobstructed impulse responses,
- :mod:`owcrelay.mobility`   waypoint-mobility position density on the
  room's floor, its adaptive integral over the blocking regions, position
  sampling,
- :mod:`owcrelay.links`      the static link budget the outage engines
  consume: gains, power allocation, receiver noise and blocking regions,
  compiled in one pass over the links, and SINR over batches of link
  states,
- :mod:`owcrelay.outage`     Monte Carlo and analytic outage estimators,
- :mod:`owcrelay.scenario`   scenario files, defaults, result serialisation;
  its sections and its AP, relay and user entries are the inputs the
  physics modules take directly, each the only copy of its settings and
  each checked when it is built.

The names below are the ones the README, the command line and the
benchmark use, plus the types they take or return; everything else is
imported from its module.
"""

from owcrelay.geometry import Rect, StadiumRegion, blocked_region
from owcrelay.channel import (
    ChannelImpulseResponse,
    SurfaceGrid,
    cir_rows,
    discretize_surfaces,
    impulse_response,
    receiver_view,
)
from owcrelay.mobility import QuadratureError, sample_human_positions
from owcrelay.links import LinkBudget, build_link_budget, evaluate_sinr, link_cir
from owcrelay.outage import (
    BLOCK_SIZE,
    OutageReport,
    OutageRow,
    ensure_marginals,
    outage_independent_approx,
    outage_monte_carlo,
)
from owcrelay.scenario import (
    ApConfig,
    ChannelConfig,
    RelayConfig,
    RoomConfig,
    Scenario,
    ScenarioError,
    UserConfig,
    default_scenario,
    load_scenario,
    result_lines,
    save_scenario,
    write_results,
)

__version__ = "0.1.0"
