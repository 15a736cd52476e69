"""The reference tick: an executable spec kept out of production.

:mod:`repro.testing.reference` is the naive world tick every production
shortcut must agree with.  Pinned here:

* it never enters the production import graph — the API, the CLI and the
  scenario builder build and run scenarios without importing it, and no
  production module but the two ``reference=`` builders imports it;
* selecting it is a build-time keyword, not part of a scenario's identity;
* it reproduces the golden-digest lockfile, so the lockfile and the
  reference agree on what the simulation does, and its naive knowledge
  layer routes the contact-aware protocols exactly like production.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.mobility.engine import MovementEngine
from repro.testing import canonical_report_bytes, run_report
from repro.testing.golden import GOLDEN_PATH, cell_digests, golden_cells
from repro.testing.reference import ReferenceMovement
from repro.world.world import World

ROOT = Path(__file__).resolve().parent.parent

_PRODUCTION_IMPORTS = """
import sys
import repro.api
import repro.cli
from repro.experiments.builder import build_scenario
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import finalize_report

for name in ("bench", "trace-csv"):
    config = make_scenario(name, {"num_nodes": 12, "sim_time": 120.0})
    built = build_scenario(config)
    built.run()
    built.world.stop()
    assert finalize_report(built.stats, config).created > 0
print("repro.testing.reference" in sys.modules)
"""


def test_reference_stays_out_of_the_production_import_graph():
    result = subprocess.run(
        [sys.executable, "-c", _PRODUCTION_IMPORTS],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.stdout.strip() == "False"


def _reference_imports(tree):
    """The import statements of *tree* that load ``repro.testing.reference``,
    each with the chain of nodes enclosing it."""
    found = []

    def visit(node, parents):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = {f"{node.module}.{alias.name}" for alias in node.names}
            if node.module == "repro.testing.reference" \
                    or "repro.testing.reference" in names:
                found.append(parents)
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("repro.testing.reference")
                for alias in node.names):
            found.append(parents)
        for child in ast.iter_child_nodes(node):
            visit(child, parents + [node])

    visit(tree, [])
    return found


def test_only_the_reference_builders_import_the_reference_module():
    """Statically, over every production module: ``repro.testing.reference``
    is imported only by the two builders, and only under ``if reference:``
    (the keyword-only ``reference=`` switch)."""
    package = ROOT / "src" / "repro"
    importers = {}
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative.startswith("testing/"):
            continue
        imports = _reference_imports(ast.parse(path.read_text(), str(path)))
        if imports:
            importers[relative] = imports
    assert sorted(importers) == ["experiments/builder.py", "traces/replay.py"]
    for relative, imports in importers.items():
        for parents in imports:
            guards = [node.test for node in parents if isinstance(node, ast.If)]
            assert any(isinstance(test, ast.Name) and test.id == "reference"
                       for test in guards), relative
            function = next(node for node in reversed(parents)
                            if isinstance(node, ast.FunctionDef))
            assert "reference" in [arg.arg for arg in function.args.kwonlyargs
                                   + function.args.args], relative


def test_reference_is_a_build_keyword_not_a_config_field():
    fields = {field.name for field in dataclasses.fields(ScenarioConfig)}
    assert "reference" not in fields
    with pytest.raises(TypeError):
        make_scenario("bench", {"reference": True})
    config = make_scenario("bench", {"num_nodes": 4, "sim_time": 5.0})
    built = build_scenario(config, reference=True)
    try:
        assert isinstance(built.world, World)
        assert type(built.world).__name__ == "ReferenceWorld"
        # the reference moves every follower through the plain loop
        assert isinstance(built.world.movement, ReferenceMovement)
        assert not isinstance(built.world.movement, MovementEngine)
    finally:
        built.world.stop()


def test_world_has_no_mode_flags():
    import inspect

    parameters = inspect.signature(World.__init__).parameters
    assert list(parameters) == ["self", "simulator", "update_interval",
                                "stats", "detector"]


LOCKFILE = json.loads((ROOT / GOLDEN_PATH).read_text())["cells"]


def test_reference_reproduces_the_golden_digests():
    """Epidemic (the heaviest transfer load) at seed 1 of every catalog
    scenario, on the reference tick; the other protocols are compared
    against production in test_router_soa / test_transfer_engine."""
    drifted = [cell.key for cell in golden_cells()
               if cell.protocol == "epidemic" and cell.seed == 1
               and cell_digests(cell, reference=True) != LOCKFILE[cell.key]]
    assert not drifted, f"reference diverged from the lockfile: {drifted}"


@pytest.mark.parametrize("protocol", ["eer", "cr", "maxprop", "ebr"])
def test_reference_knowledge_layer_matches_production(protocol):
    """The contact-aware headline protocols on the reference world: the
    estimators read the dict-of-deques histories through their rebuilt
    array views and must route exactly like the production ring-buffer
    store.  The horizon is long enough for estimator inputs to steer
    forwarding (the lockfile's 200 s cells are not), and the routers'
    three-interval contact windows fill, so the ring buffer's shift path
    runs too."""
    config = make_scenario("bench", {"protocol": protocol,
                                     "sim_time": 2_000.0,
                                     "router.window_size": 3})
    assert canonical_report_bytes(run_report(config)) \
        == canonical_report_bytes(run_report(config, reference=True))
