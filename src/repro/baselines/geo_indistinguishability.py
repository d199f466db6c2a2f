"""Geo-Indistinguishability baseline (Andrés et al., CCS 2013).

Geo-Indistinguishability extends differential privacy to location data: a
mechanism is ``epsilon``-geo-indistinguishable when the probability of
reporting any obfuscated location from two true locations at distance ``d``
differs by at most a factor ``exp(epsilon * d)``.  The canonical mechanism is
the **planar Laplace**: each reported point is the true point plus 2D noise
whose radius follows a Gamma(2, 1/epsilon) distribution and whose angle is
uniform.

The paper cites this mechanism as the state of the art it improves upon for
*data publication*: because the noise is purely spatial, protecting POIs
requires large ``epsilon * r`` products that destroy the geometry of the
trace, and even then the repeated sampling of the same stop averages out the
noise and leaves POIs recoverable (the "at least 60 % of POIs extracted"
statement in Section II).  Experiments E1/E2/E6 quantify this trade-off.

``epsilon`` here is expressed per meter, as in the original paper; a typical
"high privacy" configuration is ``epsilon = ln(4) / 200`` (a factor 4 over
200 m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api.registry import register_mechanism
from ..api.result import PublicationResult
from ..core.trajectory import MobilityDataset, Trajectory
from ..geo.projection import LocalProjection
from .base import PublicationMechanism

__all__ = ["GeoIndConfig", "GeoIndistinguishabilityMechanism", "planar_laplace_noise"]


def planar_laplace_noise(
    epsilon_per_m: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` planar Laplace offsets, returned as an ``(size, 2)`` array.

    The radial component follows a Gamma(shape=2, scale=1/epsilon) law — the
    polar form of the planar Laplace density ``p(r) ∝ r·exp(-ε·r)`` — and the
    angular component is uniform in ``[0, 2π)``.
    """
    if epsilon_per_m <= 0.0:
        raise ValueError("epsilon_per_m must be positive")
    radii = rng.gamma(shape=2.0, scale=1.0 / epsilon_per_m, size=size)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=size)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


@dataclass(frozen=True)
class GeoIndConfig:
    """Parameters of the Geo-Indistinguishability mechanism.

    Attributes
    ----------
    epsilon_per_m:
        Privacy budget per meter.  Smaller values give stronger privacy and
        larger noise; ``ln(4)/200 ≈ 0.0069`` protects within a 200 m radius.
    per_point_budget:
        When true (default) the full ``epsilon_per_m`` is spent on every
        point independently, which is how the mechanism is typically applied
        to sporadic location release.  When false, the budget is divided by
        the number of points of the trajectory (the composition-aware variant
        for whole-trace release), producing far more noise on long traces.
    seed:
        Random seed for reproducible noise.
    """

    epsilon_per_m: float = np.log(4.0) / 200.0
    per_point_budget: bool = True
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.epsilon_per_m <= 0.0:
            raise ValueError("epsilon_per_m must be positive")


class GeoIndistinguishabilityMechanism(PublicationMechanism):
    """Planar Laplace perturbation of every published point."""

    name = "geo-ind"

    def __init__(self, config: Optional[GeoIndConfig] = None) -> None:
        self.config = config or GeoIndConfig()
        self._rng = np.random.default_rng(self.config.seed)

    def publish_trajectory(self, trajectory: Trajectory) -> Trajectory:
        """Perturb every fix of one trajectory with planar Laplace noise."""
        if len(trajectory) == 0:
            return trajectory
        cfg = self.config
        epsilon = cfg.epsilon_per_m
        if not cfg.per_point_budget:
            epsilon = cfg.epsilon_per_m / max(len(trajectory), 1)
        lats = np.asarray(trajectory.lats)
        lons = np.asarray(trajectory.lons)
        projection = LocalProjection.centered_on(lats, lons)
        xs, ys = projection.project_array(lats, lons)
        noise = planar_laplace_noise(epsilon, len(trajectory), self._rng)
        new_lats, new_lons = projection.unproject_array(xs + noise[:, 0], ys + noise[:, 1])
        # Clamp to valid WGS84 bounds (relevant only for extreme noise draws).
        new_lats = np.clip(new_lats, -90.0, 90.0)
        new_lons = np.clip(new_lons, -180.0, 180.0)
        return Trajectory(trajectory.user_id, trajectory.timestamps, new_lats, new_lons)

    def publish(self, dataset: MobilityDataset) -> PublicationResult:
        """Perturb every trajectory of the dataset independently.

        A Geo-I release announces its privacy budget, hence its noise scale:
        ``noise_radius_m`` is the mean planar-Laplace radius ``2 / epsilon``
        — the figure an informed attacker scales its clustering diameter to.
        """
        return PublicationResult(
            dataset.map_trajectories(self.publish_trajectory),
            mechanism=self.name,
            properties={
                "epsilon_per_m": self.config.epsilon_per_m,
                "noise_radius_m": 2.0 / self.config.epsilon_per_m,
            },
        )


@register_mechanism("geo-ind", aliases=("geo-i", "geoind"))
def _geo_ind_mechanism(
    epsilon_per_m: float = float(np.log(4.0) / 200.0),
    per_point_budget: bool = True,
    seed: Optional[int] = 0,
) -> GeoIndistinguishabilityMechanism:
    """Planar-Laplace perturbation, e.g. ``geo-ind:epsilon_per_m=0.005,seed=7``."""
    return GeoIndistinguishabilityMechanism(
        GeoIndConfig(
            epsilon_per_m=epsilon_per_m, per_point_budget=per_point_budget, seed=seed
        )
    )
