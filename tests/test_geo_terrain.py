"""Tests for the synthetic terrain model (SRTM substitute)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terrain_oracle as oracle
from repro.geo import (
    GeoPoint,
    MountainRidge,
    TerrainModel,
    europe_terrain,
    flat_terrain,
    fractal_noise,
    us_terrain,
)
from repro.geo.terrain import _BLOCK

lat_st = st.floats(min_value=25.0, max_value=49.0, allow_nan=False)
lon_st = st.floats(min_value=-124.0, max_value=-67.0, allow_nan=False)


class TestFractalNoise:
    def test_range(self):
        x = np.linspace(-50, 50, 200)
        y = np.linspace(-20, 20, 200)
        v = fractal_noise(x, y, seed=3)
        assert np.all(v >= 0.0)
        assert np.all(v < 1.0)

    def test_deterministic(self):
        x = np.array([1.5, 2.5, 3.5])
        y = np.array([0.1, 0.2, 0.3])
        assert np.array_equal(fractal_noise(x, y, seed=5), fractal_noise(x, y, seed=5))

    def test_seed_changes_field(self):
        x = np.linspace(0, 10, 50)
        y = np.linspace(0, 10, 50)
        assert not np.allclose(fractal_noise(x, y, seed=1), fractal_noise(x, y, seed=2))

    def test_continuity(self):
        # Neighboring samples differ by a small amount (no lattice jumps).
        x = np.linspace(3.0, 3.01, 100)
        y = np.full(100, 7.0)
        v = fractal_noise(x, y, seed=9)
        assert np.max(np.abs(np.diff(v))) < 0.05


class TestMountainRidge:
    def test_distance_zero_on_crest(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([41.0]), np.array([-100.0]))
        assert d[0] < 5.0

    def test_distance_far_away(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([41.0]), np.array([-90.0]))
        # ~10 degrees of longitude at 41N is about 840 km.
        assert 700 < d[0] < 950

    def test_distance_beyond_endpoint_clamps(self):
        ridge = MountainRidge("test", ((40.0, -100.0), (42.0, -100.0)), 1000.0, 50.0)
        d = ridge.distance_km(np.array([45.0]), np.array([-100.0]))
        # Clamped to the endpoint at 42N: roughly 3 degrees of latitude.
        assert 300 < d[0] < 370


class TestTerrainModel:
    def test_flat_terrain_is_flat(self):
        t = flat_terrain(100.0)
        lats = np.linspace(30, 45, 50)
        lons = np.linspace(-120, -80, 50)
        assert np.allclose(t.elevation_m(lats, lons), 100.0)

    def test_elevation_never_negative(self):
        t = us_terrain()
        rng = np.random.default_rng(0)
        lats = rng.uniform(25, 49, 500)
        lons = rng.uniform(-124, -67, 500)
        assert np.all(t.elevation_m(lats, lons) >= 0.0)

    def test_deterministic_across_instances(self):
        a = us_terrain(seed=7)
        b = us_terrain(seed=7)
        lats = np.linspace(30, 45, 20)
        lons = np.linspace(-110, -80, 20)
        assert np.array_equal(a.elevation_m(lats, lons), b.elevation_m(lats, lons))

    def test_rockies_higher_than_midwest(self):
        t = us_terrain()
        rockies = t.point_elevation_m(GeoPoint(39.5, -106.0))
        midwest = t.point_elevation_m(GeoPoint(41.0, -93.0))
        assert rockies > midwest + 800.0

    def test_alps_higher_than_netherlands(self):
        t = europe_terrain()
        alps = t.point_elevation_m(GeoPoint(46.5, 9.5))
        holland = t.point_elevation_m(GeoPoint(52.3, 4.9))
        assert alps > holland + 1000.0

    def test_profile_shapes(self):
        t = us_terrain()
        lats, lons, elev = t.profile(GeoPoint(41.9, -87.6), GeoPoint(40.7, -74.0), 64)
        assert lats.shape == lons.shape == elev.shape == (64,)

    def test_profile_endpoints_match_point_queries(self):
        t = us_terrain()
        p1, p2 = GeoPoint(35.0, -101.0), GeoPoint(36.0, -97.0)
        _, _, elev = t.profile(p1, p2, 10)
        assert elev[0] == pytest.approx(t.point_elevation_m(p1))
        assert elev[-1] == pytest.approx(t.point_elevation_m(p2))

    @given(lat_st, lon_st)
    @settings(max_examples=50)
    def test_scalar_query_finite(self, lat, lon):
        t = us_terrain()
        e = t.point_elevation_m(GeoPoint(lat, lon))
        assert np.isfinite(e)
        assert 0.0 <= e < 6000.0


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


_US_BOX = (24.0, 50.0, -125.0, -66.0)

TERRAINS = {
    "us": (us_terrain(), _US_BOX),
    "europe": (europe_terrain(), (35.0, 71.0, -10.0, 30.0)),
    "flat": (flat_terrain(55.0), _US_BOX),
    # A zero base: nothing is skipped, and far points (past the capped
    # envelope exponent) take their exact lift.
    "ridge_only": (
        TerrainModel(
            seed=3,
            base_m=0.0,
            relief_m=0.0,
            ridges=(MountainRidge("solo", ((40.0, -100.0), (42.0, -95.0)), 1500.0, 60.0),),
        ),
        _US_BOX,
    ),
    # A negative base: nothing is skipped and the result clamps to 0.
    "sunken": (
        TerrainModel(
            seed=5,
            base_m=-300.0,
            relief_m=500.0,
            ridges=(MountainRidge("solo", ((40.0, -100.0), (42.0, -95.0)), 900.0, 80.0),),
        ),
        _US_BOX,
    ),
}


def _random_points(box, n, seed, shape=None):
    la0, la1, lo0, lo1 = box
    rng = np.random.default_rng(seed)
    shape = (n,) if shape is None else shape
    return rng.uniform(la0, la1, shape), rng.uniform(lo0, lo1, shape)


class TestOracleParity:
    """The blocked kernel is bitwise equal to the unblocked reference."""

    @pytest.mark.parametrize("name", sorted(TERRAINS))
    @pytest.mark.parametrize(
        "n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17]
    )
    def test_sizes_straddling_the_block(self, name, n):
        model, box = TERRAINS[name]
        lats, lons = _random_points(box, n, seed=n)
        _assert_bitwise(model.elevation_m(lats, lons), oracle.elevation_m(model, lats, lons))

    @pytest.mark.parametrize("name", sorted(TERRAINS))
    def test_two_dimensional_input_keeps_shape(self, name):
        model, box = TERRAINS[name]
        lats, lons = _random_points(box, 0, seed=3, shape=(97, _BLOCK // 64 + 3))
        got = model.elevation_m(lats, lons)
        _assert_bitwise(got, oracle.elevation_m(model, lats, lons))
        assert got.shape == lats.shape

    def test_scalar_and_empty_inputs(self):
        model = us_terrain()
        for lat, lon in [(39.5, -106.0), ([39.5], [-106.0]), ([], [])]:
            _assert_bitwise(model.elevation_m(lat, lon), oracle.elevation_m(model, lat, lon))

    @given(
        st.sampled_from(sorted(TERRAINS)),
        st.lists(
            st.tuples(
                st.floats(min_value=-89.0, max_value=89.0, allow_nan=False),
                st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
            ),
            min_size=1,
            max_size=64,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_coordinates(self, name, points):
        model, _ = TERRAINS[name]
        lats = np.array([p[0] for p in points])
        lons = np.array([p[1] for p in points])
        _assert_bitwise(model.elevation_m(lats, lons), oracle.elevation_m(model, lats, lons))

    @pytest.mark.parametrize("name", ["us", "europe"])
    def test_ridge_band_where_the_skip_switches_on(self, name):
        # 5-7 ridge widths out, a ridge's term falls to about a quarter
        # float spacing of the elevation, where the roughness skip turns on.
        model, box = TERRAINS[name]
        lats, lons = _random_points(box, 200_000, seed=11)
        want = oracle.elevation_m(model, lats, lons)
        for ridge in model.ridges:
            ratio = ridge.distance_km(lats, lons) / ridge.width_km
            band = (ratio >= 5.0) & (ratio <= 7.0)
            assert band.sum() > 100, ridge.name
            lift = ridge.height_m * np.exp(-(ratio[band] ** 2))
            below = lift < 0.25 * np.spacing(want[band])
            assert below.any() and not below.all(), ridge.name
            _assert_bitwise(model.elevation_m(lats[band], lons[band]), want[band])

    @pytest.mark.parametrize("octaves,seed", [(5, 7), (3, 108), (1, 0)])
    def test_fractal_noise_unchanged(self, octaves, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-400.0, 400.0, (31, 29))
        y = rng.uniform(-400.0, 400.0, (31, 29))
        _assert_bitwise(
            fractal_noise(x, y, octaves=octaves, seed=seed),
            oracle.fractal_noise(x, y, octaves=octaves, seed=seed),
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_scalar_inputs(self):
        # Scalars run the kernel on numpy scalars, whose integer ops warn
        # on the hash's (intended) uint64 wraparound.
        for x, y in [(1.5, 2.5), (np.array(-7.25), np.array(3.0))]:
            got = fractal_noise(x, y, seed=4)
            want = oracle.fractal_noise(x, y, seed=4)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for ridge in us_terrain().ridges:
            lat, lon = np.array(39.0), np.array(-104.0)
            _assert_bitwise(ridge.distance_km(lat, lon), oracle.distance_km(ridge, lat, lon))

    @pytest.mark.parametrize("name", ["us", "europe"])
    def test_batch_invariance(self, name):
        # Each element equals its single-point value, so one ground
        # sample per tower equals the old per-pair endpoint samples.
        model, box = TERRAINS[name]
        lats, lons = _random_points(box, _BLOCK + 5, seed=5)
        batch = model.elevation_m(lats, lons)
        for k in range(0, len(lats), 397):
            single = model.elevation_m(lats[k : k + 1], lons[k : k + 1])
            assert single.tobytes() == batch[k : k + 1].tobytes()

    # sha256 of elevation_m over a seeded 200x200 grid, captured with the
    # unblocked kernel.
    @pytest.mark.parametrize(
        "name,digest",
        [
            ("us", "0f23e795ec0d370648d62e1b7c5a3843d2cc3318773a48afcf9c1a1155669665"),
            ("europe", "2b26b8e8aeab0dfc3c406919f8337c2c7b0f819e5b0a62f4cc76127ee3aba8ea"),
        ],
    )
    def test_pinned_grid_digest(self, name, digest):
        model, box = TERRAINS[name]
        rng = np.random.default_rng(2024)
        la0, la1, lo0, lo1 = box
        lats = rng.uniform(la0, la1, (200, 200))
        lons = rng.uniform(lo0, lo1, (200, 200))
        got = model.elevation_m(lats, lons)
        assert got.shape == (200, 200)
        assert hashlib.sha256(got.tobytes()).hexdigest() == digest


_CREST = ((40.0, -100.0), (42.0, -100.0))


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"width_km": 0.0}, "width_km"),
            ({"width_km": -5.0}, "width_km"),
            ({"width_km": float("nan")}, "width_km"),
            ({"width_km": float("inf")}, "width_km"),
            ({"height_m": -1.0}, "height_m"),
            ({"height_m": float("nan")}, "height_m"),
            ({"height_m": float("inf")}, "height_m"),
            ({"waypoints": ((40.0, -100.0),)}, "waypoints"),
            ({"waypoints": ()}, "waypoints"),
            ({"waypoints": ((40.0, -100.0), (float("nan"), -100.0))}, "waypoints"),
            ({"waypoints": ((40.0, float("inf")), (42.0, -100.0))}, "waypoints"),
        ],
    )
    def test_ridge_rejects_bad_parameters(self, kwargs, field):
        args = {"name": "test", "waypoints": _CREST, "height_m": 1000.0, "width_km": 50.0}
        args.update(kwargs)
        with pytest.raises(ValueError, match=field):
            MountainRidge(**args)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"noise_scale_deg": 0.0}, "noise_scale_deg"),
            ({"noise_scale_deg": -1.6}, "noise_scale_deg"),
            ({"noise_scale_deg": float("nan")}, "noise_scale_deg"),
            ({"noise_scale_deg": float("inf")}, "noise_scale_deg"),
            ({"base_m": float("nan")}, "base_m"),
            ({"base_m": float("-inf")}, "base_m"),
            ({"relief_m": float("inf")}, "relief_m"),
            ({"relief_m": float("nan")}, "relief_m"),
        ],
    )
    def test_terrain_rejects_bad_parameters(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TerrainModel(**kwargs)

    def test_default_terrains_construct(self):
        for model in (us_terrain(), europe_terrain(), flat_terrain(), flat_terrain(250.0)):
            assert isinstance(model, TerrainModel)
        zero_height = MountainRidge("low", _CREST, 0.0, 50.0)
        assert zero_height.height_m == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("which", ["lats", "lons"])
    def test_non_finite_coordinates_raise_naming_the_index(self, bad, which):
        lats = np.array([40.0, 41.0, 42.0, 43.0])
        lons = np.array([-100.0, -99.0, -98.0, -97.0])
        {"lats": lats, "lons": lons}[which][2] = bad
        with pytest.raises(ValueError, match=rf"{which}\[2\]"):
            us_terrain().elevation_m(lats, lons)

    def test_non_finite_two_dimensional_index(self):
        lats = np.full((3, 4), 40.0)
        lons = np.full((3, 4), -100.0)
        lons[1, 3] = np.nan
        with pytest.raises(ValueError, match=r"lons\[1, 3\]"):
            us_terrain().elevation_m(lats, lons)
