"""Line-of-sight hop feasibility (paper §3.1 and §6.5).

A microwave hop between two towers is feasible when the sight line
between the two antennae clears, at every interior sample point,

    terrain + clutter + Earth-bulge + first-Fresnel-zone radius.

Antennae are mounted at ``usable_height_fraction`` of the tower height
(§6.5 explores fractions below 1.0 when the tower top is unavailable).
Hops longer than the radio's maximum range are infeasible outright.

The batch checker vectorizes the profile sampling across many candidate
pairs at once, which is what makes continental-scale hop enumeration
tractable in pure Python.  Every verdict samples the terrain model
directly; :mod:`repro.core.pipeline` feeds the checker spatially pruned
candidate pairs in bounded chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geo.coords import EARTH_RADIUS_KM, haversine_km
from ..geo.fresnel import RadioProfile
from ..geo.terrain import TerrainModel
from .registry import Tower

#: Ground clutter allowance (trees, low buildings) on top of bare
#: terrain, metres.  The paper's NASA dataset embeds canopy height; we
#: carry it as an explicit constant.
DEFAULT_CLUTTER_M = 12.0


@dataclass(frozen=True)
class LosConfig:
    """Feasibility-check parameters.

    Attributes:
        radio: physical-layer constants (frequency, K-factor, range).
        usable_height_fraction: fraction of the tower height available
            for mounting (1.0 = the top; §6.5 tests 0.85/0.65/0.45).
        clutter_m: clutter allowance added to terrain.
        sample_spacing_km: terrain sampling interval along the profile.
        min_samples: minimum interior profile samples per hop.
        max_samples: cap on per-hop samples (memory bound in batches).
    """

    radio: RadioProfile = RadioProfile()
    usable_height_fraction: float = 1.0
    clutter_m: float = DEFAULT_CLUTTER_M
    sample_spacing_km: float = 3.0
    min_samples: int = 9
    max_samples: int = 48

    def __post_init__(self) -> None:
        if not 0.0 < self.usable_height_fraction <= 1.0:
            raise ValueError("usable height fraction must be in (0, 1]")
        if self.clutter_m < 0:
            raise ValueError("clutter must be non-negative")
        if self.min_samples < 3:
            raise ValueError("need at least 3 samples")
        if self.max_samples < self.min_samples:
            raise ValueError(
                f"max_samples ({self.max_samples}) must be >= "
                f"min_samples ({self.min_samples})"
            )
        if not (math.isfinite(self.sample_spacing_km) and self.sample_spacing_km > 0):
            raise ValueError(
                f"sample_spacing_km must be finite and positive "
                f"(got {self.sample_spacing_km})"
            )


def _unit_vectors(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """(n, 3) unit vectors on the sphere for coordinate arrays."""
    phi = np.radians(lats)
    lam = np.radians(lons)
    return np.stack(
        [np.cos(phi) * np.cos(lam), np.cos(phi) * np.sin(lam), np.sin(phi)], axis=-1
    )


def profile_sample_points(
    lat_a: np.ndarray,
    lon_a: np.ndarray,
    lat_b: np.ndarray,
    lon_b: np.ndarray,
    m: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Interior great-circle sample coordinates for aligned endpoint arrays.

    Returns (sample_lats, sample_lons), each of shape (n, m).  Fractions
    exclude the endpoints (towers clear themselves); interpolation is
    spherical (slerp), exact on the sphere.
    """
    lat_a = np.atleast_1d(np.asarray(lat_a, dtype=float))
    lon_a = np.atleast_1d(np.asarray(lon_a, dtype=float))
    lat_b = np.atleast_1d(np.asarray(lat_b, dtype=float))
    lon_b = np.atleast_1d(np.asarray(lon_b, dtype=float))
    d = np.atleast_1d(haversine_km(lat_a, lon_a, lat_b, lon_b))
    t_frac = np.linspace(0.0, 1.0, m + 2)[1:-1]
    va = _unit_vectors(lat_a, lon_a)
    vb = _unit_vectors(lat_b, lon_b)
    omega = d / EARTH_RADIUS_KM
    sin_omega = np.sin(omega)
    sin_omega = np.where(sin_omega < 1e-12, 1.0, sin_omega)
    wa = np.sin((1.0 - t_frac)[None, :] * omega[:, None]) / sin_omega[:, None]
    wb = np.sin(t_frac[None, :] * omega[:, None]) / sin_omega[:, None]
    pts = wa[..., None] * va[:, None, :] + wb[..., None] * vb[:, None, :]
    norm = np.linalg.norm(pts, axis=-1, keepdims=True)
    pts = pts / np.where(norm > 0, norm, 1.0)
    sample_lats = np.degrees(np.arcsin(np.clip(pts[..., 2], -1.0, 1.0)))
    sample_lons = np.degrees(np.arctan2(pts[..., 1], pts[..., 0]))
    return sample_lats, sample_lons


class LosChecker:
    """Vectorized line-of-sight feasibility for tower pairs.

    Hop profiles are sampled through :meth:`profile_terrain_m`; the
    candidate-hop pipeline (:mod:`repro.core.pipeline`) drives
    :meth:`feasible_arrays` in chunks.
    """

    def __init__(self, terrain: TerrainModel, config: LosConfig | None = None):
        self.terrain = terrain
        self.config = config or LosConfig()

    def antenna_altitude_m(self, tower: Tower) -> float:
        """Antenna altitude above sea level: terrain + usable height."""
        ground = self.terrain.point_elevation_m(tower.point)
        return ground + tower.height_m * self.config.usable_height_fraction

    def hop_feasible(self, a: Tower, b: Tower) -> bool:
        """Single-pair convenience wrapper around :meth:`batch_feasible`."""
        return bool(self.batch_feasible([a], [b])[0])

    def sample_count(self, distance_km) -> np.ndarray:
        """Interior profile samples for hops of the given length(s).

        Deterministic per pair (independent of batch composition), so a
        hop's verdict is the same whether it is checked alone or inside
        any batch.
        """
        cfg = self.config
        d = np.asarray(distance_km, dtype=float)
        return np.clip(
            np.ceil(d / cfg.sample_spacing_km), cfg.min_samples, cfg.max_samples
        ).astype(int)

    def profile_terrain_m(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        m: int,
    ) -> np.ndarray:
        """Terrain heights at the m interior samples of each hop, (n, m)."""
        sample_lats, sample_lons = profile_sample_points(lat_a, lon_a, lat_b, lon_b, m)
        n = sample_lats.shape[0]
        return self.terrain.elevation_m(
            sample_lats.ravel(), sample_lons.ravel()
        ).reshape(n, m)

    def batch_feasible(self, towers_a: list[Tower], towers_b: list[Tower]) -> np.ndarray:
        """Feasibility mask for aligned lists of tower pairs.

        Returns a boolean array of shape (len(pairs),).  Pairs beyond
        the radio range are infeasible.  Each pair's profile is sampled
        at its own :meth:`sample_count` (pairs of equal count are
        evaluated together), so verdicts are batch-invariant: checking
        a pair alone or inside any batch gives the same answer.
        """
        if len(towers_a) != len(towers_b):
            raise ValueError("tower lists must be aligned")
        if len(towers_a) == 0:
            return np.zeros(0, dtype=bool)
        return self.feasible_arrays(
            np.array([t.lat for t in towers_a]),
            np.array([t.lon for t in towers_a]),
            np.array([t.height_m for t in towers_a]),
            np.array([t.lat for t in towers_b]),
            np.array([t.lon for t in towers_b]),
            np.array([t.height_m for t in towers_b]),
        )

    def feasible_arrays(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        h_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        h_b: np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Feasibility mask for aligned endpoint coordinate/height arrays.

        The array-based core behind :meth:`batch_feasible`: applies the
        range filter, groups pairs by their deterministic per-pair
        sample count, and (optionally) bounds each vectorized batch at
        ``chunk_size`` pairs so memory stays flat on huge candidate
        sets.  The candidate-hop pipeline calls this directly.
        """
        cfg = self.config
        dist = np.atleast_1d(haversine_km(lat_a, lon_a, lat_b, lon_b))
        n = len(dist)
        in_range = (dist <= cfg.radio.max_range_km) & (dist > 1e-6)
        result = np.zeros(n, dtype=bool)
        if not in_range.any():
            return result
        samples = self.sample_count(dist)
        for m in np.unique(samples[in_range]):
            idx = np.where(in_range & (samples == m))[0]
            step = len(idx) if chunk_size is None else chunk_size
            for start in range(0, len(idx), step):
                sl = idx[start : start + step]
                result[sl] = self._feasible_at_samples(
                    lat_a[sl], lon_a[sl], h_a[sl],
                    lat_b[sl], lon_b[sl], h_b[sl],
                    dist[sl], int(m),
                )
        return result

    def _feasible_at_samples(
        self,
        lat_a: np.ndarray,
        lon_a: np.ndarray,
        h_a: np.ndarray,
        lat_b: np.ndarray,
        lon_b: np.ndarray,
        h_b: np.ndarray,
        d: np.ndarray,
        m: int,
    ) -> np.ndarray:
        """Verdicts for in-range pairs sharing one interior sample count."""
        cfg = self.config
        t_frac = np.linspace(0.0, 1.0, m + 2)[1:-1]
        terrain_m = self.profile_terrain_m(lat_a, lon_a, lat_b, lon_b, m)

        # Antenna altitudes at both ends.
        ground_a = np.atleast_1d(self.terrain.elevation_m(lat_a, lon_a))
        ground_b = np.atleast_1d(self.terrain.elevation_m(lat_b, lon_b))
        alt_a = ground_a + h_a * cfg.usable_height_fraction
        alt_b = ground_b + h_b * cfg.usable_height_fraction

        # Sight-line altitude at each sample (linear in along-path distance).
        sight = alt_a[:, None] + (alt_b - alt_a)[:, None] * t_frac[None, :]
        d1 = d[:, None] * t_frac[None, :]
        d2 = d[:, None] * (1.0 - t_frac[None, :])
        clearance = cfg.radio.clearance_m(d1, d2)
        obstruction = terrain_m + cfg.clutter_m + clearance
        return np.all(sight >= obstruction, axis=1)
