"""Experiment execution: one spec through the stage DAG.

:func:`run_experiment` walks the stage DAG for one
:class:`~repro.exp.spec.ExperimentSpec` in topological order, fetching
each stage artifact from the :class:`~repro.exp.store.ArtifactStore`
(status ``"cached"``) or computing and publishing it (``"computed"``).
Every stage is a pure function of its seed-pinned spec slice, so a
warm-cache rerun is byte-identical to the cold run.  Sweeps over many
specs run through :class:`~repro.exp.service.SweepService`, which calls
this function once per point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from .spec import ExperimentSpec, canonical_json
from .stages import BASE_STAGES, STAGES, stage_key
from .store import CACHED, COMPUTED, ArtifactStore


@dataclass
class ExperimentRun:
    """One executed spec: artifacts, tidy rows, and per-stage status.

    Attributes:
        spec: the spec that ran.
        records: tidy rows (each carries a ``stage`` column).
        stage_status: stage name -> "cached" | "computed".
        artifacts: stage name -> artifact (substrate Scenario, design
            DesignResult, evaluation record lists).
    """

    spec: ExperimentSpec
    records: list[dict]
    stage_status: dict[str, str]
    artifacts: dict[str, Any]

    def records_json(self) -> str:
        """Canonical JSON of the rows (byte-comparable across runs)."""
        return canonical_json(self.records)


def run_experiment(
    spec: ExperimentSpec,
    store: ArtifactStore | None = None,
    stages: Sequence[str] | None = None,
) -> ExperimentRun:
    """Execute one spec through the stage DAG.

    Args:
        spec: the experiment to run.
        store: artifact cache; defaults to the on-disk store at
            ``$REPRO_ARTIFACT_DIR`` (or ``~/.cache/repro/artifacts``).
            Pass :class:`~repro.exp.store.NullStore` to disable caching.
        stages: stages to materialize.  The default — substrate, design,
            and every evaluation section the spec enables — always
            includes substrate/design (from cache when warm).  An
            explicit tuple materializes exactly those stages, pulling in
            dependencies only on cache misses (so e.g. ``("econ",)``
            with a pinned cost never touches the design).
    """
    store = store if store is not None else ArtifactStore()
    if stages is not None:
        requested = tuple(stages)
    else:
        requested = (*BASE_STAGES, *spec.eval_stages())
    unknown = [s for s in requested if s not in STAGES]
    if unknown:
        raise ValueError(f"unknown stage(s): {', '.join(unknown)}")
    for name in requested:
        if name not in BASE_STAGES and getattr(spec, name, None) is None:
            raise ValueError(
                f"stage {name!r} requested but the spec's {name!r} section "
                "is not enabled"
            )

    artifacts: dict[str, Any] = {}
    status: dict[str, str] = {}

    def materialize(name: str) -> Any:
        if name in artifacts:
            return artifacts[name]
        stage = STAGES[name]
        # Check this stage's cache *before* touching its dependencies: a
        # cached evaluation never loads the (much larger) substrate or
        # design artifacts it was computed from.
        key = stage_key(spec, name)
        found, artifact = store.get(key)
        if found:
            stage_status = CACHED
        else:
            inputs = {dep: materialize(dep) for dep in stage.deps(spec)}
            artifact = stage.run(spec, inputs)
            store.put(key, artifact)
            stage_status = COMPUTED
        artifacts[name] = artifact
        status[name] = stage_status
        return artifact

    for name in requested:
        materialize(name)

    # Records cover exactly the requested stages, in requested order:
    # dependencies pulled in by a cache miss must not change the output
    # (cold and warm runs of the same call stay byte-identical).
    records: list[dict] = []
    emitted: set[str] = set()
    for name in requested:
        if name in emitted:
            continue
        emitted.add(name)
        for row in STAGES[name].records(spec, artifacts[name]):
            if "stage" not in row:
                row = {"stage": name, **row}
            records.append(row)
    return ExperimentRun(
        spec=spec, records=records, stage_status=status, artifacts=artifacts
    )
