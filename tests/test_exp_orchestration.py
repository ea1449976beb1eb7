"""Tests for the experiment orchestration layer (``repro.exp``).

Covers the PR-3 acceptance contract: canonical spec form, cache-key
stability across processes, invalidation on spec changes, warm-cache
runs skipping substrate/design executions, sweep determinism across
worker counts, and the ``repro run`` CLI round trip.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp import (
    ArtifactStore,
    DesignSpec,
    EconSpec,
    ExperimentSpec,
    NetsimSpec,
    NullStore,
    ScenarioSpec,
    SweepService,
    WeatherSpec,
    canonical_json,
    expand_points,
    run_experiment,
    stage_key,
)

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def tiny_spec(**overrides) -> ExperimentSpec:
    """A 6-site US experiment cheap enough for per-test cold builds."""
    kwargs = dict(
        scenario=ScenarioSpec(name="us", sites=6, seed=42),
        design=DesignSpec(
            budget_towers=150.0,
            solver="heuristic",
            aggregate_gbps=20.0,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(0.3, 0.9), engine="fluid", seed=0),
        econ=EconSpec(),
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


@pytest.fixture(scope="module")
def shared_store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("exp-store"))


class TestSpec:
    def test_json_round_trip(self):
        spec = tiny_spec(weather=WeatherSpec(n_intervals=3))
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_canonical_dict_is_json_clean(self):
        doc = tiny_spec().to_dict()
        json.dumps(doc, allow_nan=False)  # no numpy scalars, no NaN
        assert doc["design"]["solver_opts"] == [["ilp_refinement", False]]

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment spec section"):
            ExperimentSpec.from_dict({"scnario": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown design spec field"):
            ExperimentSpec.from_dict({"design": {"budget": 100}})

    def test_fixed_site_scenarios_reject_sites(self):
        with pytest.raises(ValueError, match="fixed site list"):
            ScenarioSpec(name="europe", sites=10)
        with pytest.raises(ValueError, match="fixed site list"):
            ScenarioSpec(name="interdc", sites=4)

    def test_fixed_los_scenarios_reject_overrides(self):
        with pytest.raises(ValueError, match="LoS overrides"):
            ScenarioSpec(name="interdc", max_range_km=60.0)
        with pytest.raises(ValueError, match="LoS overrides"):
            ScenarioSpec(name="city_dc", usable_height_fraction=0.65)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_range_km", float("nan")),
            ("max_range_km", float("inf")),
            ("max_range_km", -5.0),
            ("max_range_km", 0.0),
            ("usable_height_fraction", float("nan")),
            ("usable_height_fraction", float("inf")),
            ("usable_height_fraction", -5.0),
            ("usable_height_fraction", 0.0),
            ("usable_height_fraction", 1.5),
        ],
    )
    def test_bad_los_overrides_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ScenarioSpec(**{field: value})
        with pytest.raises(ValueError, match=field):
            ExperimentSpec.from_dict({"scenario": {field: value}})

    def test_scalar_loads_rejected_cleanly(self):
        with pytest.raises(ValueError, match="loads must be a list"):
            ExperimentSpec.from_dict({"netsim": {"loads": 0.5}})

    def test_with_value_replaces_one_field(self):
        spec = tiny_spec()
        moved = spec.with_value("design.budget_towers", 500.0)
        assert moved.design.budget_towers == 500.0
        assert moved.scenario == spec.scenario

    def test_with_value_rejects_disabled_section(self):
        spec = tiny_spec(weather=None)
        with pytest.raises(ValueError, match="not enabled"):
            spec.with_value("weather.n_intervals", 7)

    def test_with_value_rejects_bad_path(self):
        with pytest.raises(ValueError, match="bad spec path"):
            tiny_spec().with_value("budget_towers", 1.0)

    def test_solver_opts_order_is_canonical(self):
        a = DesignSpec(solver_opts={"b": 1, "a": 2})
        b = DesignSpec(solver_opts={"a": 2, "b": 1})
        assert a == b
        assert canonical_json(a.solver_opts) == canonical_json(b.solver_opts)


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("ab" * 32, {"x": [1, 2, 3]})
        found, value = store.get("ab" * 32)
        assert found and value == {"x": [1, 2, 3]}

    def test_missing_key_is_a_miss(self, tmp_path):
        assert ArtifactStore(tmp_path).get("cd" * 32) == (False, None)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        key = "ef" * 32
        writer.put(key, 123)
        writer.path_for(key).write_bytes(b"torn write")
        # A fresh store (another process) sees the torn entry as absent.
        assert ArtifactStore(tmp_path).get(key) == (False, None)

    def test_memory_layer_shares_loaded_artifacts(self, tmp_path):
        writer = ArtifactStore(tmp_path)
        key = "0f" * 32
        writer.put(key, {"big": "artifact"})
        reader = ArtifactStore(tmp_path)
        _, first = reader.get(key)
        _, second = reader.get(key)
        assert first is second  # deserialized once per process

    def test_null_store_never_caches(self):
        store = NullStore()
        store.put("ab" * 32, 1)
        assert store.get("ab" * 32) == (False, None)


class TestCacheKeys:
    def test_key_is_stable_across_processes(self):
        """The same canonical spec hashes identically in a fresh process."""
        spec = tiny_spec()
        here = {name: stage_key(spec, name) for name in ("substrate", "design")}
        program = (
            "import json, sys\n"
            "from repro.exp import ExperimentSpec, stage_key\n"
            "spec = ExperimentSpec.from_json(sys.stdin.read())\n"
            "print(json.dumps({n: stage_key(spec, n)"
            " for n in ('substrate', 'design')}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", program],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout
        assert json.loads(out) == here

    def test_design_field_change_rekeys_design_only(self):
        spec = tiny_spec()
        moved = spec.with_value("design.budget_towers", 999.0)
        assert stage_key(spec, "substrate") == stage_key(moved, "substrate")
        assert stage_key(spec, "design") != stage_key(moved, "design")
        assert stage_key(spec, "netsim") != stage_key(moved, "netsim")

    def test_scenario_seed_change_rekeys_everything(self):
        spec = tiny_spec()
        moved = spec.with_value("scenario.seed", 7)
        for name in ("substrate", "design", "netsim"):
            assert stage_key(spec, name) != stage_key(moved, name)

    def test_default_seed_is_pinned(self):
        """seed=None and the explicit default seed share one substrate."""
        assert stage_key(
            tiny_spec(scenario=ScenarioSpec(name="us", sites=6)), "substrate"
        ) == stage_key(tiny_spec(), "substrate")

    def test_eval_change_leaves_design_key_alone(self):
        spec = tiny_spec()
        moved = spec.with_value("netsim.loads", (0.5,))
        assert stage_key(spec, "design") == stage_key(moved, "design")
        assert stage_key(spec, "netsim") != stage_key(moved, "netsim")

    def test_solver_version_enters_design_key(self, monkeypatch):
        from repro.core import get_solver

        spec = tiny_spec()
        before = stage_key(spec, "design")
        monkeypatch.setattr(
            type(get_solver("heuristic")), "version", "2", raising=False
        )
        assert stage_key(spec, "design") != before


class TestRunExperiment:
    def test_cold_then_warm(self, shared_store):
        spec = tiny_spec()
        cold = run_experiment(spec, store=shared_store)
        warm = run_experiment(spec, store=shared_store)
        assert cold.stage_status["substrate"] == "computed"
        assert warm.stage_status["substrate"] == "cached"
        assert warm.stage_status["design"] == "cached"
        assert cold.records_json() == warm.records_json()

    def test_records_cover_requested_stages(self, shared_store):
        run = run_experiment(tiny_spec(), store=shared_store)
        stages = {row["stage"] for row in run.records}
        assert stages == {"substrate", "design", "netsim", "econ"}

    def test_econ_only_run_skips_design(self, shared_store):
        spec = ExperimentSpec(econ=EconSpec(cost_per_gb=0.81))
        run = run_experiment(spec, store=shared_store, stages=("econ",))
        assert set(run.stage_status) == {"econ"}
        assert {row["stage"] for row in run.records} == {"econ"}

    def test_explicit_stage_records_identical_cold_vs_warm(self, tmp_path):
        """Dependencies pulled in by a cache miss never enter the records."""
        spec = tiny_spec(econ=EconSpec(cost_per_gb=None))
        cold = run_experiment(spec, store=ArtifactStore(tmp_path), stages=("econ",))
        warm = run_experiment(spec, store=ArtifactStore(tmp_path), stages=("econ",))
        assert cold.stage_status["design"] == "computed"  # dep materialized
        assert "design" not in warm.stage_status  # served from cache
        assert {row["stage"] for row in cold.records} == {"econ"}
        assert cold.records_json() == warm.records_json()

    def test_netsim_without_aggregate_fails_loudly(self, shared_store):
        spec = tiny_spec(
            design=DesignSpec(budget_towers=150.0, aggregate_gbps=None)
        )
        with pytest.raises(ValueError, match="aggregate_gbps"):
            run_experiment(spec, store=shared_store)


AXES = {
    "design.budget_towers": [100.0, 150.0],
    "netsim.loads": [(0.3,), (0.9,)],
}


class TestSweepRunner:
    """Sweep execution semantics, driven through SweepService."""

    def test_warm_two_axis_sweep_is_byte_identical_and_skips_stages(
        self, shared_store
    ):
        """The PR acceptance criterion, end to end."""
        spec = tiny_spec()
        cold = SweepService(spec, AXES, store=shared_store).run()
        warm = SweepService(spec, AXES, store=shared_store).run()
        assert cold.records_json() == warm.records_json()
        assert warm.executed("substrate") == 0
        assert warm.executed("design") == 0
        assert warm.stage_counts["design"]["cached"] == 4

    def test_table_is_per_point_runs_in_point_order(self, shared_store):
        """The table is each point's own run_experiment rows, tagged."""
        spec = tiny_spec()
        result = SweepService(spec, AXES, store=shared_store).run()
        expected = [
            {"point": index, **assignment, **row}
            for index, (assignment, point_spec) in enumerate(
                expand_points(spec, result.axes)
            )
            for row in run_experiment(point_spec, store=shared_store).records
        ]
        assert result.records_json() == canonical_json(expected)

    def test_jobs_4_matches_jobs_1(self, shared_store):
        spec = tiny_spec()
        serial = SweepService(spec, AXES, store=shared_store, jobs=1).run()
        parallel = SweepService(spec, AXES, store=shared_store, jobs=4).run()
        assert serial.records_json() == parallel.records_json()

    def test_parallel_cold_sweep_computes_shared_stages_once(self, tmp_path):
        """Workers must not race to rebuild shared substrates/designs."""
        result = SweepService(
            tiny_spec(), AXES, store=ArtifactStore(tmp_path), jobs=4
        ).run()
        assert result.stage_counts["substrate"]["computed"] == 1
        assert result.stage_counts["design"]["computed"] == 2  # one per budget

    def test_point_rows_carry_axis_columns(self, shared_store):
        result = SweepService(tiny_spec(), AXES, store=shared_store).run()
        row = result.records[0]
        assert row["point"] == 0
        assert row["design.budget_towers"] == 100.0
        assert row["netsim.loads"] == (0.3,)

    def test_streaming_callback_sees_every_point(self, shared_store):
        seen = []
        SweepService(tiny_spec(), AXES, store=shared_store).run(
            on_point=lambda index, rows: seen.append(index)
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_bad_axis_path_fails_before_any_work(self, shared_store):
        with pytest.raises(ValueError, match="not enabled"):
            SweepService(
                tiny_spec(weather=None),
                {"weather.n_intervals": [3, 5]},
                store=shared_store,
            )

    def test_null_store_still_deterministic(self):
        spec = tiny_spec()
        axes = {"design.budget_towers": [100.0]}
        a = SweepService(spec, axes, store=NullStore()).run()
        b = SweepService(spec, axes, store=NullStore()).run()
        assert a.records_json() == b.records_json()
        assert a.executed("design") == 1


class TestCliRun:
    def _write_spec(self, tmp_path, doc) -> str:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_round_trip_single_spec(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self._write_spec(tmp_path, tiny_spec().to_dict())
        assert main(["run", spec_path]) == 0
        out = capsys.readouterr().out
        assert "mean_stretch" in out
        assert "stages:" in out

    def test_run_json_output_round_trips(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = self._write_spec(tmp_path, tiny_spec().to_dict())
        assert main(["run", spec_path, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert any(row["stage"] == "design" for row in records)

    def test_run_sweep_document(self, tmp_path, capsys):
        from repro.cli import main

        doc = {
            "spec": tiny_spec().to_dict(),
            "axes": {"design.budget_towers": [100.0, 150.0]},
        }
        assert main(["run", self._write_spec(tmp_path, doc), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "point" in out

    def test_run_rejects_bad_spec_file(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["run", str(bad)])

    def test_sites_for_europe_errors_loudly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="fixed site list"):
            main(["design", "--scenario", "europe", "--sites", "10"])

    def test_seed_flag_reaches_the_substrate(self, capsys):
        from repro.cli import main

        assert main(["design", "--sites", "6", "--budget", "150",
                     "--gbps", "20", "--seed", "7"]) == 0
        assert "us-6" in capsys.readouterr().out


class TestGetScenario:
    def test_unknown_name_rejected(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("mars")

    def test_interdc_rejects_los_overrides(self):
        from repro.scenarios import get_scenario

        with pytest.raises(ValueError, match="LoS overrides"):
            get_scenario("interdc", max_range_km=60.0)
