"""Every committed experiment spec parses under the current schema.

The example spec files and the end-to-end benchmark's workload specs are
data that outlive the code that wrote them: a schema change that drops
or renames a field they use must fail here, not when someone runs them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.exp.spec import ExperimentSpec

REPO = Path(__file__).resolve().parent.parent
SPEC_FILES = sorted((REPO / "examples" / "specs").glob("*.json"))


def load_perfbench_workloads():
    """``perfbench/workloads.py`` by path (plain data; imports no repro)."""
    path = REPO / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def apply_axes(spec, axes):
    """Set every axis value on the base spec (JSON lists become tuples,
    as the ``run`` command reads them)."""
    for path, values in axes.items():
        assert values, f"axis {path!r} has no values"
        for value in values:
            if isinstance(value, list):
                value = tuple(value)
            point = spec.with_value(path, value)
            assert ExperimentSpec.from_dict(point.to_dict()) == point


def test_example_specs_exist():
    assert SPEC_FILES


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.name)
def test_example_spec_parses(path):
    doc = json.loads(path.read_text())
    axes = doc.pop("axes", None) or {}
    spec = ExperimentSpec.from_dict(doc.pop("spec", doc))
    assert not doc, f"unknown top-level keys {sorted(doc)}"
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    apply_axes(spec, axes)


@pytest.mark.parametrize("workload", ["flagship_cold", "design_sweep", "eval_sweep"])
def test_perfbench_workload_spec_parses(workload):
    workloads = load_perfbench_workloads()
    assert workload in workloads.WORKLOADS
    spec = ExperimentSpec.from_dict(workloads.spec_dict(workload, 0))
    apply_axes(spec, workloads.WORKLOADS[workload]["axes"] or {})
