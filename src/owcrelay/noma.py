"""Power-domain multiplexing and receiver noise.

Each access point splits its optical power over the users it serves with
geometrically decaying weights, largest share to the weakest channel.
Successive decoding at a receiver removes every weaker user's signal, so the
residual interference comes only from users decoded later (the stronger
channels).  :func:`owcrelay.links.evaluate_sinr` turns these allocations and
noise variances into SINR values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "ELECTRON_CHARGE",
    "NoiseModel",
    "noise_variance",
    "ApAllocation",
    "order_users_and_allocate",
]

ELECTRON_CHARGE = 1.602176634e-19


@dataclass(frozen=True)
class NoiseModel:
    """Shot noise from the mean photocurrent plus a flat excess floor."""

    bandwidth_hz: float = 1e10
    noise_density_a2_per_hz: float = 1e-24
    background_current_a: float = 0.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.noise_density_a2_per_hz < 0 or self.background_current_a < 0:
            raise ValueError("noise parameters must be non-negative")


def noise_variance(
    model: NoiseModel,
    received_power_w: float,
    responsivity: float = 0.5,
) -> float:
    """Electrical noise variance at a detector seeing the given optical power."""
    if received_power_w < 0:
        raise ValueError("received power must be non-negative")
    photocurrent = responsivity * received_power_w
    shot = 2.0 * ELECTRON_CHARGE * (photocurrent + model.background_current_a) * model.bandwidth_hz
    return shot + model.noise_density_a2_per_hz * model.bandwidth_hz


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

