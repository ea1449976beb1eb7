"""Reference terrain kernel: the unblocked elevation field, verbatim.

``elevation_m`` evaluates the whole query in one pass of full-length
numpy temporaries, hashes all four lattice corners with their own
multiply-and-cast chains and evaluates every ridge's roughness noise at
every point.  It is the bitwise reference that the terrain tests compare
:meth:`repro.geo.TerrainModel.elevation_m`,
:meth:`repro.geo.MountainRidge.distance_km` and
:func:`repro.geo.fractal_noise` against.  It takes the model only for
its parameters, so it runs on any :class:`~repro.geo.TerrainModel`.
"""

from __future__ import annotations

import numpy as np

from repro.geo.terrain import MountainRidge, TerrainModel

#: Kilometres per degree of latitude (spherical Earth).
_KM_PER_DEG_LAT = 111.19


def _mix_hash(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic integer hash of lattice coordinates to [0, 1)."""
    seed_mix = np.uint64((seed * 0x165667B19E3779F9) % (1 << 64))
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ seed_mix
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def _value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Bilinear-interpolated lattice value noise in [0, 1)."""
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = _smoothstep(x - x0)
    ty = _smoothstep(y - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    v00 = _mix_hash(ix0, iy0, seed)
    v10 = _mix_hash(ix0 + 1, iy0, seed)
    v01 = _mix_hash(ix0, iy0 + 1, seed)
    v11 = _mix_hash(ix0 + 1, iy0 + 1, seed)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * ty


def fractal_noise(
    x: np.ndarray,
    y: np.ndarray,
    octaves: int = 5,
    persistence: float = 0.5,
    lacunarity: float = 2.0,
    seed: int = 0,
) -> np.ndarray:
    """Multi-octave value noise normalized to [0, 1)."""
    total = np.zeros_like(np.asarray(x, dtype=float))
    amplitude = 1.0
    frequency = 1.0
    norm = 0.0
    for octave in range(octaves):
        total += amplitude * _value_noise(x * frequency, y * frequency, seed + octave)
        norm += amplitude
        amplitude *= persistence
        frequency *= lacunarity
    return total / norm


def distance_km(ridge: MountainRidge, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Approximate distance from query points to the ridge polyline.

    Uses a local equirectangular projection per segment, accurate to
    a few percent at the few-hundred-km scales that matter for the
    ridge envelope.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    best = np.full(lats.shape, np.inf)
    pts = ridge.waypoints
    for (lat_a, lon_a), (lat_b, lon_b) in zip(pts[:-1], pts[1:]):
        mean_lat = np.radians((lat_a + lat_b) / 2.0)
        kx = _KM_PER_DEG_LAT * np.cos(mean_lat)
        ax, ay = lon_a * kx, lat_a * _KM_PER_DEG_LAT
        bx, by = lon_b * kx, lat_b * _KM_PER_DEG_LAT
        px = lons * kx
        py = lats * _KM_PER_DEG_LAT
        dx, dy = bx - ax, by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq <= 0:
            t = np.zeros_like(px)
        else:
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len_sq, 0.0, 1.0)
        cx = ax + t * dx
        cy = ay + t * dy
        dist = np.hypot(px - cx, py - cy)
        best = np.minimum(best, dist)
    return best


def elevation_m(model: TerrainModel, lats, lons) -> np.ndarray:
    """Elevation in metres at the query coordinates (vectorized)."""
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    x = lons / model.noise_scale_deg
    y = lats / model.noise_scale_deg
    base = model.base_m + model.relief_m * fractal_noise(x, y, octaves=5, seed=model.seed)
    elevation = base
    for i, ridge in enumerate(model.ridges):
        dist = distance_km(ridge, lats, lons)
        envelope = np.exp(-((dist / ridge.width_km) ** 2))
        # Ruggedness: crest height varies along the belt.
        rough = 0.55 + 0.45 * fractal_noise(
            x * 3.0, y * 3.0, octaves=3, seed=model.seed + 101 + i
        )
        elevation = elevation + ridge.height_m * envelope * rough
    return np.maximum(elevation, 0.0)
