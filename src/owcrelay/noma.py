"""Power-domain multiplexing and receiver noise.

Each access point splits its optical power over the users it serves with
geometrically decaying weights, largest share to the weakest channel.
Successive decoding at a receiver removes every weaker user's signal, so the
residual interference comes only from users decoded later (the stronger
channels).  :func:`noise_variance` reads the scenario's noise section
(:class:`owcrelay.scenario.NoiseConfig`), and
:func:`owcrelay.links.evaluate_sinr` turns these allocations and noise
variances into SINR values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from owcrelay.scenario import NoiseConfig

__all__ = [
    "ELECTRON_CHARGE",
    "noise_variance",
    "ApAllocation",
    "order_users_and_allocate",
]

ELECTRON_CHARGE = 1.602176634e-19


def noise_variance(
    noise: NoiseConfig,
    received_power_w: float,
    responsivity: float = 0.5,
) -> float:
    """Electrical noise variance at a detector seeing the given optical power:
    shot noise from the mean photocurrent plus a flat excess floor."""
    if received_power_w < 0:
        raise ValueError("received power must be non-negative")
    bandwidth_hz = noise.bandwidth_ghz * 1e9
    photocurrent = responsivity * received_power_w
    shot = 2.0 * ELECTRON_CHARGE * (photocurrent + noise.background_current_a) * bandwidth_hz
    return shot + noise.noise_density_a2hz * bandwidth_hz


@dataclass(frozen=True)
class ApAllocation:
    """Decoding order and power split of one access point.

    ``ordered_users`` is sorted by ascending channel gain (ties by user id),
    so position 0 is the weakest user and holds the largest share.  A user's
    residual interferers are exactly the users after it in this order.
    """

    ap_id: str
    ordered_users: tuple[str, ...]
    powers_w: tuple[float, ...]

    def power_of(self, user_id: str) -> float:
        try:
            return self.powers_w[self.ordered_users.index(user_id)]
        except ValueError:
            raise KeyError(f"user {user_id!r} is not served by {self.ap_id!r}") from None

    def interferers_of(self, user_id: str) -> tuple[str, ...]:
        i = self.ordered_users.index(user_id)
        return self.ordered_users[i + 1 :]


def order_users_and_allocate(
    ap_id: str,
    served_users: Sequence[str],
    gains: Mapping[str, float],
    power_ratio: float = 4.0,
    budget_w: float = 1e-3,
) -> ApAllocation:
    """Split one access point's power budget over the users it serves.

    Users sort by ascending channel gain (ties by user id), and with n users
    the shares are proportional to r^(n-1), ..., r, 1 in that order, so the
    weakest channel receives the largest share.
    """
    if not served_users:
        raise ValueError(f"access point {ap_id!r} serves no users")
    if power_ratio <= 1.0:
        raise ValueError("power ratio must exceed 1")
    if budget_w <= 0.0:
        raise ValueError("power budget must be positive")
    for u in served_users:
        if gains[u] < 0.0:
            raise ValueError(f"negative channel gain for user {u!r}")
    ordered = tuple(sorted(served_users, key=lambda u: (gains[u], u)))
    n = len(ordered)
    weights = [power_ratio ** (n - 1 - j) for j in range(n)]
    total = sum(weights)
    powers = tuple(budget_w * w / total for w in weights)
    return ApAllocation(ap_id, ordered, powers)

