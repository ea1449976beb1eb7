"""Synthetic terrain elevation model (substitute for NASA SRTM/NED data).

The paper assesses microwave hop feasibility against the NASA SRTM/NED
elevation dataset (which includes ground clutter and tree canopy).  That
dataset is tens of gigabytes and unavailable offline, so we substitute a
deterministic procedural elevation field with the properties the
line-of-sight engine actually consumes:

* smooth multi-octave relief with realistic amplitudes (plains tens of
  metres, hills hundreds, mountain belts thousands);
* named mountain ridges placed where the real ones are (Rockies,
  Sierra Nevada, Appalachians, Alps, ...), so hop feasibility varies
  geographically the way the paper reports (e.g., the long
  Illinois-California link crosses the Rockies through low tower
  density);
* determinism: the same (lat, lon, seed) always yields the same
  elevation, so experiments are reproducible.

Elevations are metres above a nominal sea level and are never negative.

Evaluation.  Hop enumeration samples millions of points, so the kernel
is written for speed while keeping every output bit of the plain
formula (an elementwise chain of numpy ops):

* **Blocked evaluation.**  ``elevation_m`` evaluates the field in
  fixed blocks of ``_BLOCK`` points into one preallocated output.  The
  dozens of numpy temporaries per block stay in cache instead of
  streaming megabyte arrays through memory for every op.  Every op is
  elementwise, so blocking cannot change a value.
* **Lattice hashing.**  A corner ``(i, j)`` hashes
  ``i*K_X ^ j*K_Y ^ mix(seed)`` in wrapping uint64 arithmetic.  The
  ``+1`` corners reuse the products, since
  ``(i+1)*K == i*K + K (mod 2**64)``: exact integer arithmetic.  The
  float steps (smoothstep, the lerps, the octave sums) keep their
  operation order; dividing the 53-bit hash by ``2**53`` became an
  equally exact multiply by ``2**-53``.
* **Exact ridge skip.**  A ridge adds ``fl(fl(h*env)*rough)`` with
  ``h >= 0`` and ``rough <= 1``, so the term is at most ``fl(h*env)``.
  Under round-to-nearest, adding ``t >= 0`` to ``e > 0`` returns ``e``
  whenever ``t < spacing(e)/2``.  Where ``fl(h*env)`` is below a
  quarter spacing, the term therefore cannot change the running sum,
  and the ridge's roughness noise is evaluated only on the other
  points.  The quarter (not a half) covers ``rough`` rounding up to
  1.0.  Ridge terms are never negative, so the running elevation never
  falls below the base relief and its spacing never shrinks: the
  quarter spacing of the base is a safe threshold for every ridge.
  Where the base is not positive, nothing is skipped.  The test caps
  the envelope's exponent at ``_EXP_ARG_CAP`` (past it np.exp
  underflows on a slow path); capping can only raise the tested lift,
  so every skip stays exact, and the rare live point past the cap gets
  its exact lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coords import GeoPoint, great_circle_points

#: Kilometres per degree of latitude (spherical Earth).
_KM_PER_DEG_LAT = 111.19

#: Points per evaluation block of :meth:`TerrainModel.elevation_m`:
#: 128 KiB float64 temporaries stay in a 2 MiB L2.  On a 2-vCPU Xeon,
#: 12288-16384 beat 8192 by ~7% (per-op call overhead) and 4096 or
#: 32768 by 15-25%.
_BLOCK = 16384

#: exp(-a) is a normal float up to this exponent; beyond it np.exp
#: takes a slow underflow path.
_EXP_ARG_CAP = 708.0

#: Lattice-hash multipliers: x, y, the seed, and the avalanche step.
_K_X = np.uint64(0x9E3779B97F4A7C15)
_K_Y = np.uint64(0xC2B2AE3D27D4EB4F)
_K_SEED = 0x165667B19E3779F9
_K_MIX = np.uint64(0xFF51AFD7ED558CCD)
_SHIFT_MIX = np.uint64(33)
_SHIFT_MANTISSA = np.uint64(11)
#: 2**-53 (exact): scales a 53-bit integer into [0, 1).
_UNIT_53 = 1.0 / float(1 << 53)


def _lattice_terms(i: np.ndarray, k: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """``i*k`` and ``(i+1)*k`` in wrapping uint64 arithmetic.

    The int64 -> uint64 view is the two's-complement cast the hash has
    always used, and ``(i+1)*k == i*k + k (mod 2**64)``.
    """
    lo = i.astype(np.int64).view(np.uint64)
    lo *= k
    return lo, lo + k


def _corner_value(ax: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Hash of one lattice corner from its x and y terms, mapped to [0, 1)."""
    h = ax ^ by
    h ^= h >> _SHIFT_MIX
    h *= _K_MIX
    h ^= h >> _SHIFT_MIX
    h >>= _SHIFT_MANTISSA
    # h < 2**53 now, so the signed view converts to the same exact float.
    value = h.view(np.int64).astype(np.float64)
    value *= _UNIT_53
    return value


def _smoothstep_inplace(t: np.ndarray) -> np.ndarray:
    """``t * t * (3.0 - 2.0 * t)``, overwriting ``t`` when it is an array."""
    t2 = t * t
    t *= -2.0
    t += 3.0
    t *= t2
    return t


def _value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    """Bilinear-interpolated lattice value noise in [0, 1).

    Corner ``(i, j)`` hashes ``i*K_X ^ j*K_Y ^ mix(seed)``.
    """
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = _smoothstep_inplace(x - x0)
    ty = _smoothstep_inplace(y - y0)
    ax0, ax1 = _lattice_terms(x0, _K_X)
    by0, by1 = _lattice_terms(y0, _K_Y)
    seed_mix = np.uint64((seed * _K_SEED) % (1 << 64))
    by0 ^= seed_mix
    by1 ^= seed_mix
    # top = v00 + (v10 - v00) * tx, bottom likewise, then the y lerp.
    v00 = _corner_value(ax0, by0)
    top = _corner_value(ax1, by0)
    top -= v00
    top *= tx
    top += v00
    v01 = _corner_value(ax0, by1)
    bottom = _corner_value(ax1, by1)
    bottom -= v01
    bottom *= tx
    bottom += v01
    bottom -= top
    bottom *= ty
    bottom += top
    return bottom


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
        noise = _value_noise(x * frequency, y * frequency, seed + octave)
        noise *= amplitude
        total += noise
        norm += amplitude
        amplitude *= persistence
        frequency *= lacunarity
    return total / norm


@dataclass(frozen=True)
class MountainRidge:
    """A mountain belt modelled as a Gaussian wall along a polyline.

    Attributes:
        name: human-readable label (e.g., "Rockies").
        waypoints: polyline of (lat, lon) pairs tracing the ridge crest.
        height_m: peak crest height above the surrounding base level.
        width_km: e-folding half-width of the belt.
    """

    name: str
    waypoints: tuple[tuple[float, float], ...]
    height_m: float
    width_km: float

    def __post_init__(self) -> None:
        where = f"MountainRidge {self.name!r}"
        if not (math.isfinite(self.height_m) and self.height_m >= 0):
            raise ValueError(
                f"{where}: height_m must be finite and >= 0 (got {self.height_m})"
            )
        if not (math.isfinite(self.width_km) and self.width_km > 0):
            raise ValueError(
                f"{where}: width_km must be finite and positive (got {self.width_km})"
            )
        if len(self.waypoints) < 2:
            raise ValueError(
                f"{where}: waypoints must trace at least 2 points "
                f"(got {len(self.waypoints)})"
            )
        for k, (lat, lon) in enumerate(self.waypoints):
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValueError(
                    f"{where}: waypoints[{k}] must be finite (got {(lat, lon)})"
                )

    def distance_km(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Approximate distance from query points to the ridge polyline.

        Uses a local equirectangular projection per segment, accurate to
        a few percent at the few-hundred-km scales that matter for the
        ridge envelope.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        best = np.full(lats.shape, np.inf)
        py = lats * _KM_PER_DEG_LAT
        pts = self.waypoints
        for (lat_a, lon_a), (lat_b, lon_b) in zip(pts[:-1], pts[1:]):
            mean_lat = np.radians((lat_a + lat_b) / 2.0)
            kx = _KM_PER_DEG_LAT * np.cos(mean_lat)
            ax, ay = lon_a * kx, lat_a * _KM_PER_DEG_LAT
            bx, by = lon_b * kx, lat_b * _KM_PER_DEG_LAT
            px = lons * kx
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


@dataclass(frozen=True)
class TerrainModel:
    """Deterministic procedural elevation field.

    Attributes:
        seed: noise seed; the same seed reproduces the same terrain.
        base_m: mean elevation of the gently rolling base relief.
        relief_m: peak-to-peak amplitude of the base relief.
        noise_scale_deg: spatial scale (degrees per noise cell) of the
            base relief's lowest octave.
        ridges: mountain belts superimposed on the base relief.
    """

    seed: int = 7
    base_m: float = 120.0
    relief_m: float = 380.0
    noise_scale_deg: float = 1.6
    ridges: tuple[MountainRidge, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.noise_scale_deg) and self.noise_scale_deg > 0):
            raise ValueError(
                f"TerrainModel: noise_scale_deg must be finite and positive "
                f"(got {self.noise_scale_deg})"
            )
        for name in ("base_m", "relief_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"TerrainModel: {name} must be finite (got {value})")

    def elevation_m(self, lats, lons) -> np.ndarray:
        """Elevation in metres at the query coordinates (vectorized).

        Raises ValueError naming the first non-finite coordinate.
        """
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats, lons = np.broadcast_arrays(lats, lons)
        for name, values in (("lats", lats), ("lons", lons)):
            bad = ~np.isfinite(values)
            if bad.any():
                index = np.unravel_index(int(np.argmax(bad)), bad.shape)
                at = ", ".join(str(int(k)) for k in index)
                raise ValueError(
                    f"elevation_m: {name}[{at}] must be finite (got {values[index]})"
                )
        out = np.empty(lats.shape)
        flat_out = out.reshape(-1)
        flat_lats = lats.reshape(-1)
        flat_lons = lons.reshape(-1)
        for start in range(0, flat_out.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            flat_out[block] = self._elevation_block(flat_lats[block], flat_lons[block])
        return out

    def _elevation_block(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Elevations of one 1-D block of at most ``_BLOCK`` finite points."""
        x = lons / self.noise_scale_deg
        y = lats / self.noise_scale_deg
        elevation = self.base_m + self.relief_m * fractal_noise(
            x, y, octaves=5, seed=self.seed
        )
        # Ridge terms are >= 0, so the running elevation never drops below
        # the base and its spacing never shrinks: a quarter spacing of the
        # base bounds every ridge's skip threshold (module docstring).
        quarter = 0.25 * np.spacing(elevation)
        for i, ridge in enumerate(self.ridges):
            arg = ridge.distance_km(lats, lons)
            arg /= ridge.width_km
            arg *= arg
            # The capped exponent keeps np.exp off its slow underflow path
            # and can only raise the lift, so the skip stays exact.
            lift = np.minimum(arg, _EXP_ARG_CAP)
            np.negative(lift, out=lift)
            np.exp(lift, out=lift)
            lift *= ridge.height_m
            live = np.flatnonzero(lift >= quarter)
            if live.size == 0:
                continue
            lift = lift[live]
            capped = arg[live] > _EXP_ARG_CAP
            if capped.any():
                lift[capped] = ridge.height_m * np.exp(-arg[live][capped])
            # Ruggedness: crest height varies along the belt.
            rough = 0.55 + 0.45 * fractal_noise(
                x[live] * 3.0, y[live] * 3.0, octaves=3, seed=self.seed + 101 + i
            )
            elevation[live] += lift * rough
        return np.maximum(elevation, 0.0, out=elevation)

    def point_elevation_m(self, point: GeoPoint) -> float:
        """Elevation at a single point, metres."""
        return float(self.elevation_m([point.lat], [point.lon])[0])

    def profile(
        self, p1: GeoPoint, p2: GeoPoint, n_samples: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terrain profile along the great circle from ``p1`` to ``p2``.

        Returns (lats, lons, elevations_m), each of shape (n_samples,),
        including the endpoints.
        """
        lats, lons = great_circle_points(p1, p2, n_samples)
        return lats, lons, self.elevation_m(lats, lons)


def us_terrain(seed: int = 7) -> TerrainModel:
    """Terrain model for the contiguous United States."""
    return TerrainModel(
        seed=seed,
        base_m=150.0,
        relief_m=420.0,
        noise_scale_deg=1.7,
        ridges=(
            MountainRidge(
                "Rockies",
                ((48.8, -115.0), (44.5, -110.5), (39.5, -106.0), (35.5, -105.8)),
                height_m=2400.0,
                width_km=260.0,
            ),
            MountainRidge(
                "Sierra Nevada",
                ((40.5, -121.3), (37.5, -119.0), (35.8, -118.2)),
                height_m=2300.0,
                width_km=90.0,
            ),
            MountainRidge(
                "Cascades",
                ((48.8, -121.4), (44.0, -121.8), (41.5, -122.2)),
                height_m=1900.0,
                width_km=90.0,
            ),
            MountainRidge(
                "Appalachians",
                ((43.0, -73.2), (40.5, -77.5), (37.5, -80.5), (35.0, -83.5)),
                height_m=900.0,
                width_km=130.0,
            ),
        ),
    )


def europe_terrain(seed: int = 11) -> TerrainModel:
    """Terrain model for Europe."""
    return TerrainModel(
        seed=seed,
        base_m=120.0,
        relief_m=360.0,
        noise_scale_deg=1.5,
        ridges=(
            MountainRidge(
                "Alps",
                ((45.2, 6.0), (46.3, 8.5), (47.0, 11.0), (46.5, 13.8)),
                height_m=2600.0,
                width_km=130.0,
            ),
            MountainRidge(
                "Pyrenees",
                ((43.1, -1.8), (42.6, 0.8), (42.4, 2.8)),
                height_m=2000.0,
                width_km=70.0,
            ),
            MountainRidge(
                "Carpathians",
                ((49.3, 19.8), (48.0, 24.0), (45.7, 25.4)),
                height_m=1500.0,
                width_km=110.0,
            ),
            MountainRidge(
                "Scandes",
                ((59.5, 7.5), (63.0, 11.0), (67.5, 16.5)),
                height_m=1400.0,
                width_km=150.0,
            ),
            MountainRidge(
                "Apennines",
                ((44.4, 8.8), (42.5, 13.3), (40.5, 15.8)),
                height_m=1400.0,
                width_km=70.0,
            ),
        ),
    )


def flat_terrain(elevation_m: float = 0.0) -> TerrainModel:
    """A perfectly flat terrain (useful for tests and calibration)."""
    return TerrainModel(seed=0, base_m=elevation_m, relief_m=0.0, ridges=())
