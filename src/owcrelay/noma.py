"""Power-domain multiplexing and receiver noise.

Each access point splits its optical power over the users it serves with
geometrically decaying weights, largest share to the weakest channel.
Successive decoding at a receiver removes every weaker user's signal, so the
residual interference comes only from users decoded later (the stronger
channels).  :func:`order_users_and_allocate` reads the source's entry
(:class:`owcrelay.scenario.ApConfig`) for the budget and the scenario's
multiplexing section (:class:`owcrelay.scenario.NomaConfig`) for the ratio,
:func:`noise_variance` reads its noise section
(:class:`owcrelay.scenario.NoiseConfig`), and
:func:`owcrelay.links.evaluate_sinr` turns these allocations and noise
variances into SINR values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from owcrelay.scenario import ApConfig, NoiseConfig, NomaConfig

__all__ = [
    "ELECTRON_CHARGE",
    "noise_variance",
    "ApAllocation",
    "order_users_and_allocate",
]

ELECTRON_CHARGE = 1.602176634e-19


def noise_variance(noise: NoiseConfig, received_power_w: float, responsivity: float) -> float:
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
    ap: ApConfig, served_users: Sequence[str], gains: Mapping[str, float], noma: NomaConfig
) -> ApAllocation:
    """Split the power of the source ``ap`` over the users it serves.

    Users sort by ascending channel gain (ties by user id), and with n users
    the shares are proportional to r^(n-1), ..., r, 1 in that order, where r
    is ``noma.power_ratio``, so the weakest channel receives the largest
    share.
    """
    if not served_users:
        raise ValueError(f"access point {ap.id!r} serves no users")
    for u in served_users:
        if gains[u] < 0.0:
            raise ValueError(f"negative channel gain for user {u!r}")
    ordered = tuple(sorted(served_users, key=lambda u: (gains[u], u)))
    n = len(ordered)
    weights = [noma.power_ratio ** (n - 1 - j) for j in range(n)]
    total = sum(weights)
    powers = tuple(ap.power_mw * 1e-3 * w / total for w in weights)
    return ApAllocation(ap.id, ordered, powers)
