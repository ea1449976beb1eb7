"""Declarative, seed-pinned experiment specifications.

An :class:`ExperimentSpec` names everything a composed experiment
consumes — the scenario substrate, the topology design, and the
evaluations (netsim load curve, weather year, fast-path planning,
cost-benefit) — with every random seed explicit, so the same spec
always produces the same artifacts and records.

Specs have one *canonical* dict/JSON form (:meth:`ExperimentSpec.to_dict`
/ :func:`canonical_json`): nested plain dicts with sorted keys and only
JSON scalars.  The orchestration layer hashes slices of that form to
content-address cached artifacts, so canonicalization — not object
identity — is what makes caching correct across processes and sessions.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

#: Scenario names the substrate stage can build (see
#: :func:`repro.scenarios.get_scenario`).
SCENARIO_NAMES = ("us", "europe", "interdc", "city_dc")

#: Per-scenario default tower-synthesis seeds (match the historical
#: defaults of the ``us_scenario``/``europe_scenario``/... builders).
SCENARIO_DEFAULT_SEEDS = {"us": 42, "europe": 43, "interdc": 44, "city_dc": 45}

#: Scenarios whose site list is fixed (``sites`` must stay None).
FIXED_SITE_SCENARIOS = ("europe", "interdc")

#: Scenarios that take no line-of-sight overrides.
FIXED_LOS_SCENARIOS = ("interdc", "city_dc")

#: Netsim engines (single source; the netsim package and CLI import it).
ENGINES = ("packet", "fluid")

#: How the offered traffic matrix is built: "design" scales the design
#: matrix by a load fraction; "users" builds it bottom-up from per-city
#: populations (diurnal + heavy-tail million-user demand layer).
DEMAND_MODELS = ("design", "users")

#: Transport macro-models: "udp" offers demand open-loop; "tcp" caps
#: each flow at its Mathis-model rate (fluid engine only).
TRANSPORTS = ("udp", "tcp")

#: Accepted values of the ``NetsimSpec.workload`` key.  The key selects
#: nothing (every fluid solve runs on flow tables); it stays in the
#: schema because stored specs and sweep-journal fingerprints name it.
WORKLOADS = ("object", "table")


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of a plain dict/list/scalar tree.

    Sorted keys, no whitespace, NaN/Infinity rejected — two equal trees
    always serialize to the same bytes, in any process.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _scalar(value: Any) -> Any:
    """Coerce numpy scalars and tuples to JSON-clean plain values."""
    if isinstance(value, (list, tuple)):
        return [_scalar(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _scalar(v) for k, v in sorted(value.items())}
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _asdict(spec: Any) -> dict:
    """A dataclass's canonical dict: plain scalars, tuples as lists."""
    out = {}
    for f in fields(spec):
        out[f.name] = _scalar(getattr(spec, f.name))
    return out


def _fromdict(cls, data: Mapping[str, Any], section: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {section} spec field(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})"
        )
    kwargs = dict(data)
    # Tuples survive the JSON round trip as lists.
    for f in fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """The substrate half of a spec: which geography, which seeds.

    Attributes:
        name: scenario family ("us", "europe", "interdc", "city_dc").
        sites: site-list size for scenarios that take one (``us``,
            ``city_dc``); must stay None for fixed-site scenarios
            (``europe``, ``interdc``) — passing it there is an error,
            never silently ignored.
        max_range_km: maximum MW hop length (§6.5 sweeps 60-100 km).
        usable_height_fraction: antenna mounting-height restriction.
        seed: tower-synthesis seed; None pins the scenario's historical
            default (42/43/44/45) so default specs equal explicit ones.
    """

    name: str = "us"
    sites: int | None = None
    max_range_km: float = 100.0
    usable_height_fraction: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.name!r} (choose from {', '.join(SCENARIO_NAMES)})"
            )
        if self.name in FIXED_SITE_SCENARIOS and self.sites is not None:
            raise ValueError(
                f"scenario {self.name!r} has a fixed site list; "
                f"'sites' is not supported (got {self.sites})"
            )
        for name in ("max_range_km", "usable_height_fraction"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except TypeError:
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number (got {value!r})")
        if self.max_range_km <= 0:
            raise ValueError(f"max_range_km must be positive (got {self.max_range_km})")
        if not 0.0 < self.usable_height_fraction <= 1.0:
            raise ValueError(
                "usable_height_fraction must be in (0, 1] "
                f"(got {self.usable_height_fraction})"
            )
        if self.name in FIXED_LOS_SCENARIOS and (
            self.max_range_km != 100.0 or self.usable_height_fraction != 1.0
        ):
            raise ValueError(
                f"scenario {self.name!r} does not take LoS overrides "
                "(max_range_km / usable_height_fraction)"
            )
        if self.sites is not None and self.sites < 2:
            raise ValueError("need at least 2 sites")

    def resolved_seed(self) -> int:
        """The tower-synthesis seed with the scenario default applied."""
        return SCENARIO_DEFAULT_SEEDS[self.name] if self.seed is None else self.seed


@dataclass(frozen=True)
class DesignSpec:
    """The topology-design half: budget, solver, provisioning target.

    Attributes:
        budget_towers: the tower budget B.
        solver: registry backend name (see ``repro.core.solver_names``).
        aggregate_gbps: Step-3 provisioning target; None skips capacity
            augmentation and costing.
        solver_opts: backend-specific options, stored as a sorted tuple
            of (key, value) pairs so the spec stays hashable and its
            canonical form is order-independent.
    """

    budget_towers: float = 1000.0
    solver: str = "heuristic"
    aggregate_gbps: float | None = None
    solver_opts: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.budget_towers < 0:
            raise ValueError("budget must be non-negative")
        opts = self.solver_opts
        if isinstance(opts, Mapping):
            opts = tuple(sorted(opts.items()))
        else:
            opts = tuple(sorted((str(k), v) for k, v in opts))
        object.__setattr__(self, "solver_opts", opts)

    def opts_dict(self) -> dict[str, Any]:
        return dict(self.solver_opts)


@dataclass(frozen=True)
class NetsimSpec:
    """Load-curve evaluation (§5 / Fig 5 methodology).

    Attributes:
        loads: offered-load fractions of the design aggregate (or of the
            user-model aggregate under ``demand_model="users"``).
        engine: "packet" or "fluid".
        duration_s: simulated seconds per load point (packet engine).
        seed: Poisson-arrival seed (packet engine).
        capacity_mode: "k2" (Step-3 provisioning) or "tight".
        demand_model: "design" (scale the design matrix) or "users"
            (bottom-up per-city million-user demand).
        demand_hour_utc: UTC hour evaluated by the diurnal profile
            (users model only).
        demand_seed: heavy-tail per-city multiplier seed (users model).
        users_millions: rescale the user model to this many million
            active users network-wide; None keeps population-derived
            counts (users model only).
        transport: "udp" (open-loop offers) or "tcp" (Mathis macro-model
            caps; requires ``engine="fluid"``).
        workload: "object" or "table"; validated but selects nothing.
            Every fluid solve runs on array-native flow tables.  The
            key stays because committed specs (the benchmark's
            flagship among them) and sweep-journal fingerprints name
            it, and unknown spec fields are rejected; it is not part
            of the netsim stage payload.  "table" requires
            ``engine="fluid"``.
        profile: include the fluid engine's per-phase wall-clock
            timings (setup/fill/freeze) in each record row.  Off by
            default: timings are nondeterministic, and default records
            must stay byte-identical across runs.
    """

    loads: tuple[float, ...] = (0.3, 0.6, 0.9)
    engine: str = "packet"
    duration_s: float = 0.5
    seed: int = 0
    capacity_mode: str = "k2"
    demand_model: str = "design"
    demand_hour_utc: float = 20.0
    demand_seed: int = 0
    users_millions: float | None = None
    transport: str = "udp"
    workload: str = "object"
    profile: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.loads, (tuple, list)):
            raise ValueError(
                f"loads must be a list of load fractions (got {self.loads!r})"
            )
        object.__setattr__(self, "loads", tuple(float(x) for x in self.loads))
        if not self.loads:
            raise ValueError("need at least one load fraction")
        if any(not 0 < load <= 1.5 for load in self.loads):
            raise ValueError("load fractions must be in (0, 1.5]")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} (choose from {', '.join(ENGINES)})"
            )
        if self.demand_model not in DEMAND_MODELS:
            raise ValueError(
                f"unknown demand model {self.demand_model!r} "
                f"(choose from {', '.join(DEMAND_MODELS)})"
            )
        if not 0 <= self.demand_hour_utc < 24:
            raise ValueError("demand hour must be in [0, 24)")
        if self.users_millions is not None and self.users_millions <= 0:
            raise ValueError("users_millions must be positive")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(choose from {', '.join(TRANSPORTS)})"
            )
        if self.transport == "tcp" and self.engine != "fluid":
            raise ValueError(
                "transport='tcp' is a fluid-engine macro-model; "
                "use engine='fluid' (the packet engine has TcpFlow)"
            )
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r} "
                f"(choose from {', '.join(WORKLOADS)})"
            )
        if self.workload == "table" and self.engine != "fluid":
            raise ValueError(
                "workload='table' is the fluid engine's array-native "
                "fast path; use engine='fluid'"
            )
        if not isinstance(self.profile, bool):
            raise ValueError("profile must be a boolean")


@dataclass(frozen=True)
class WeatherSpec:
    """Yearly weather analysis (Fig 7), optionally with the graded model.

    Attributes:
        n_intervals: sampled days of the year.
        fade_margin_db: binary failure threshold.
        seed: day-sampling seed.
        graded: also run the graded (modulation-downshift) comparison.
        frequency_ghz: MW carrier frequency for the rain attenuation
            physics — threaded through *both* the binary and the graded
            pass, so the two models always evaluate the same physics.
        sample_interval_days: when set, evaluate every Nth day of the
            365-day year deterministically (``1`` = full daily
            resolution) instead of sampling ``n_intervals`` random
            days; ``n_intervals`` and ``seed`` are then ignored.
        delta_k: the failure-set solver's neighbor radius — queries
            within ``delta_k`` links of a previously solved set take
            the compositional delta route (``0`` = memo-only).
        cache_mb: LRU byte budget (MiB) for the solver's cached
            distance matrices and the per-set stretch rows.
    """

    n_intervals: int = 120
    fade_margin_db: float = 30.0
    seed: int = 7
    graded: bool = False
    frequency_ghz: float = 11.0
    sample_interval_days: int | None = None
    delta_k: int = 2
    cache_mb: float = 256.0

    def __post_init__(self) -> None:
        if self.n_intervals <= 0:
            raise ValueError("need at least one interval")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.sample_interval_days is not None and not (
            1 <= self.sample_interval_days <= 365
        ):
            raise ValueError("sample_interval_days must be in [1, 365]")
        if self.delta_k < 0:
            raise ValueError("delta_k must be >= 0")
        if self.cache_mb <= 0:
            raise ValueError("cache_mb must be positive")


@dataclass(frozen=True)
class AppsSpec:
    """Fast-path planning (§6.6): fill cISP capacity in value order.

    Attributes:
        capacity_gbps: fast-path capacity; None uses the design's
            provisioning target (``design.aggregate_gbps``).
        min_value_per_gb: admission floor.
    """

    capacity_gbps: float | None = None
    min_value_per_gb: float = 0.0


@dataclass(frozen=True)
class EconSpec:
    """Cost-benefit table (§8).

    Attributes:
        cost_per_gb: network cost to compare value estimates against;
            None uses the designed network's amortized $/GB (which then
            requires ``design.aggregate_gbps``).
    """

    cost_per_gb: float | None = None


#: Evaluation sections, in canonical execution order.
EVAL_SECTIONS = ("netsim", "weather", "apps", "econ")

_SECTION_TYPES: dict[str, type] = {
    "scenario": ScenarioSpec,
    "design": DesignSpec,
    "netsim": NetsimSpec,
    "weather": WeatherSpec,
    "apps": AppsSpec,
    "econ": EconSpec,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully pinned composed experiment.

    ``scenario`` and ``design`` are always present; each evaluation
    section is optional — a None section means that stage is not part
    of this experiment.  ``label`` is cosmetic (it never enters cache
    keys).
    """

    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    design: DesignSpec = field(default_factory=DesignSpec)
    netsim: NetsimSpec | None = None
    weather: WeatherSpec | None = None
    apps: AppsSpec | None = None
    econ: EconSpec | None = None
    label: str | None = None

    # -- canonical form ---------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical nested-dict form (JSON scalars only)."""
        out: dict[str, Any] = {
            "scenario": _asdict(self.scenario),
            "design": _asdict(self.design),
        }
        for section in EVAL_SECTIONS:
            value = getattr(self, section)
            if value is not None:
                out[section] = _asdict(value)
        if self.label is not None:
            out["label"] = self.label
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        unknown = set(data) - set(_SECTION_TYPES) - {"label"}
        if unknown:
            raise ValueError(
                f"unknown experiment spec section(s): {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = {}
        for section, section_cls in _SECTION_TYPES.items():
            if section in data and data[section] is not None:
                raw = data[section]
                if not isinstance(raw, Mapping):
                    raise ValueError(f"spec section {section!r} must be an object")
                kwargs[section] = _fromdict(section_cls, raw, section)
        if "label" in data and data["label"] is not None:
            kwargs["label"] = str(data["label"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # -- structure --------------------------------------------------------

    def eval_stages(self) -> tuple[str, ...]:
        """The evaluation stages this spec requests, in canonical order."""
        return tuple(s for s in EVAL_SECTIONS if getattr(self, s) is not None)

    def with_value(self, path: str, value: Any) -> "ExperimentSpec":
        """A copy with one dotted field replaced (``"design.budget_towers"``).

        Sweep axes address spec fields this way.  The section must be
        enabled (non-None) — sweeping a disabled evaluation is an error,
        not an implicit opt-in.
        """
        section, _, field_name = path.partition(".")
        if not field_name or section not in _SECTION_TYPES:
            raise ValueError(
                f"bad spec path {path!r} (want '<section>.<field>' with "
                f"section in {', '.join(_SECTION_TYPES)})"
            )
        current = getattr(self, section)
        if current is None:
            raise ValueError(
                f"cannot set {path!r}: section {section!r} is not enabled "
                "in the base spec"
            )
        if field_name not in {f.name for f in fields(current)}:
            raise ValueError(f"{section} spec has no field {field_name!r}")
        updated = dataclasses.replace(current, **{field_name: value})
        return dataclasses.replace(self, **{section: updated})
