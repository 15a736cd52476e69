"""The golden-digest lockfile: every cell must reproduce byte for byte.

``tests/golden_digests.json`` (written by ``scripts/record_golden_digests.py``)
pins the canonical report digest and config hash of every catalog scenario
under every headline protocol at two seeds.  These tests recompute each cell;
a mismatch means the simulation's behaviour (or a scenario's identity)
changed.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.catalog import available_scenarios
from repro.testing.golden import (
    GOLDEN_PATH,
    catalog_config_hashes,
    cell_digests,
    golden_cells,
)

LOCKFILE = json.loads(
    (Path(__file__).resolve().parent.parent / GOLDEN_PATH).read_text())


def test_lockfile_covers_exactly_the_grid():
    assert sorted(LOCKFILE["cells"]) == [cell.key for cell in golden_cells()]
    assert sorted(LOCKFILE["catalog"]) == available_scenarios()


def test_catalog_config_hashes_unchanged():
    assert catalog_config_hashes() == LOCKFILE["catalog"]


@pytest.mark.parametrize("scenario", available_scenarios())
def test_scenario_cells_match_lockfile(scenario):
    drifted = []
    for cell in golden_cells():
        if cell.scenario != scenario:
            continue
        if cell_digests(cell) != LOCKFILE["cells"][cell.key]:
            drifted.append(cell.key)
    assert not drifted, f"golden digests drifted: {drifted}"
