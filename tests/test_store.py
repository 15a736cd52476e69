"""Results store tests: identity hashing, round-trips, dedupe, concurrency.

The store's contract has three load-bearing pieces, each pinned here:

* **identity** — ``ScenarioConfig.config_hash()`` is stable across field
  ordering and explicitly-passed defaults, ignores ``name``/``seed`` (those
  are separate key columns) and changes for any behavioural field;
* **byte-identity** — a report served from the store is exactly the report
  that was simulated (canonical ``as_dict()`` form), so a resumed sweep
  merges into byte-identical results;
* **append-only dedupe** — the first write of a key wins; re-running a
  sweep against a populated store computes zero cells, including with
  several writers racing on one database file.
"""

import json
import sqlite3
import threading

import pytest

from repro.checkpoint import save_checkpoint_bytes
from repro.experiments.catalog import make_scenario
from repro.experiments.runner import run_averaged, run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweep import sweep
from repro.metrics.reports import SimulationReport
from repro.store import (
    ResultsStore,
    StoreError,
    canonical_report_json,
    open_store,
)


def tiny_config(**overrides):
    base = ScenarioConfig.bench_scale(protocol="spray-and-wait", num_nodes=10,
                                      sim_time=250.0, name="store-tiny")
    return base.with_overrides(**overrides) if overrides else base


# ------------------------------------------------------------------ identity
def test_config_hash_stable_across_explicit_defaults():
    base = tiny_config()
    defaults = ScenarioConfig()
    explicit = base.with_overrides(min_speed=defaults.min_speed,
                                   keep_records=defaults.keep_records)
    assert base.config_hash() == explicit.config_hash()


def test_config_hash_ignores_name_and_seed():
    base = tiny_config()
    assert base.with_overrides(seed=99).config_hash() == base.config_hash()
    assert base.with_overrides(name="other").config_hash() == base.config_hash()
    # ... because both are separate components of the identity key
    assert base.identity_key() != base.with_overrides(seed=99).identity_key()


def test_config_hash_changes_with_behavioural_fields():
    base = tiny_config()
    assert base.with_overrides(protocol="eer").config_hash() != base.config_hash()
    assert base.with_overrides(sim_time=500.0).config_hash() != base.config_hash()
    assert (base.with_overrides(router_params={"alpha": 0.4}).config_hash()
            != base.config_hash())


def test_identity_payload_drops_default_valued_fields():
    payload = tiny_config().identity_payload()
    assert "name" not in payload and "seed" not in payload
    defaults = ScenarioConfig()
    # a field left at its default never appears: adding config fields later
    # must not invalidate stores/manifests written before the field existed
    assert tiny_config().min_speed == defaults.min_speed
    assert "min_speed" not in payload
    assert payload["protocol"] == "spray-and-wait"
    assert list(payload) == sorted(payload)


def test_identity_payload_is_json_round_trippable():
    payload = tiny_config(message_interval=(25.0, 35.0)).identity_payload()
    assert json.loads(json.dumps(payload)) == payload


# ---------------------------------------------------------------- round trips
def test_report_from_dict_round_trips_exactly():
    report = run_scenario(tiny_config())
    payload = json.loads(canonical_report_json(report))
    again = SimulationReport.from_dict(payload)
    assert canonical_report_json(again) == canonical_report_json(report)


def test_report_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError):
        SimulationReport.from_dict({"no_such_metric": 1.0})


def test_store_round_trip_and_provenance(tmp_path):
    config = tiny_config()
    report = run_scenario(config)
    path = str(tmp_path / "results.sqlite")
    with open_store(path) as store:
        assert store.put(config, report, wall_seconds=1.5)
        assert config in store
        assert len(store) == 1
    with open_store(path) as store:  # fresh connection sees the same row
        served = store.get(config)
        assert canonical_report_json(served) == canonical_report_json(report)
        row = store.provenance(config)
        assert row["wall_seconds"] == 1.5
        assert row["repro_version"]
        assert row["created_utc"]
        assert store.keys() == [config.identity_key()]


def test_detected_community_rows_are_byte_reproducible(tmp_path):
    """CR's online detection records its wall-clock compute time on the
    report; the stored row must not carry it, or two runs of the same cell
    would store different bytes."""
    config = make_scenario("community-detect",
                           {"protocol": "cr-newman", "sim_time": 600.0})
    stored = []
    for run in range(2):
        report = run_scenario(config)
        assert report.community_detections > 0
        path = tmp_path / f"run{run}.sqlite"
        with open_store(str(path)) as store:
            assert store.put(config, report)
        with sqlite3.connect(str(path)) as connection:
            (row,), = connection.execute("SELECT report_json FROM results")
        stored.append(row)
    assert stored[0] == stored[1]
    assert "community_detection_seconds" not in json.loads(stored[0])


def test_store_append_only_first_write_wins(tmp_path):
    config = tiny_config()
    report = run_scenario(config)
    other = run_scenario(config.with_overrides(sim_time=300.0))
    with open_store(str(tmp_path / "r.sqlite")) as store:
        assert store.put(config, report)
        assert not store.put(config, other)  # same key: ignored, not replaced
        assert canonical_report_json(store.get(config)) == \
            canonical_report_json(report)
        assert len(store) == 1


def test_store_rejects_unknown_schema_version(tmp_path):
    path = str(tmp_path / "r.sqlite")
    with open_store(path) as store:
        store._connection.execute(
            "UPDATE store_meta SET value = '999' WHERE key = 'schema_version'")
        store._connection.commit()
    with pytest.raises(StoreError):
        open_store(path)


# --------------------------------------------------------------------- dedupe
def test_run_averaged_with_store_computes_nothing_second_time(tmp_path):
    config = tiny_config()
    events = []
    with open_store(str(tmp_path / "r.sqlite")) as store:
        first = run_averaged(config, seeds=[1, 2], store=store)
        assert len(store) == 2
        second = run_averaged(config, seeds=[1, 2], store=store,
                              progress=events.append)
        assert len(store) == 2
    assert [event["status"] for event in events] == ["cached", "cached"]
    assert second.as_dict() == first.as_dict()
    assert second.identity_keys() == first.identity_keys()


def test_sweep_with_store_resumes_byte_identically(tmp_path):
    base = tiny_config(protocol="eer")
    grid = {"num_nodes": [8, 12], "router.alpha": [0.1, 0.5]}
    straight = sweep(base, grid, seeds=[1])

    # interrupted first pass: only some cells made it into the store
    with open_store(str(tmp_path / "r.sqlite")) as store:
        partial = sweep(base, {"num_nodes": [8], "router.alpha": [0.1, 0.5]},
                        seeds=[1], store=store)
        assert len(store) == 2
        events = []
        resumed = sweep(base, grid, seeds=[1], store=store,
                        progress=events.append)
        statuses = [event["status"] for event in events]
        assert statuses.count("cached") == 2
        assert statuses.count("computed") == 2
    del partial
    merged = json.dumps([point.as_dict() for point in resumed], sort_keys=True)
    fresh = json.dumps([point.as_dict() for point in straight], sort_keys=True)
    assert merged == fresh


def test_concurrent_writers_one_row_per_key(tmp_path):
    config = tiny_config()
    reports = {seed: run_scenario(config.with_overrides(seed=seed))
               for seed in (1, 2, 3, 4)}
    path = str(tmp_path / "r.sqlite")
    errors = []

    def writer(seed):
        try:
            with open_store(path) as store:  # own connection per thread
                for _ in range(5):
                    store.put(config.with_overrides(seed=seed), reports[seed])
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(seed,))
               for seed in reports for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    with open_store(path) as store:
        assert len(store) == 4
        for seed, report in reports.items():
            served = store.get(config.with_overrides(seed=seed))
            assert canonical_report_json(served) == \
                canonical_report_json(report)


def test_opening_a_fresh_store_waits_out_a_concurrent_writer(tmp_path):
    # another connection holds the write lock of a fresh (rollback-journal)
    # file: SQLite refuses the switch to WAL at once, without waiting out
    # the busy timeout, so the store has to retry it
    path = str(tmp_path / "r.sqlite")
    holder = sqlite3.connect(path, isolation_level=None,
                             check_same_thread=False)
    holder.execute("CREATE TABLE held (x)")
    holder.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, holder.execute, args=("COMMIT",))
    release.start()
    try:
        with open_store(path, timeout=10.0) as store:
            assert len(store) == 0
    finally:
        release.join(timeout=5.0)
        holder.close()
    assert not release.is_alive()


def test_store_summary_counts(tmp_path):
    config = tiny_config()
    with open_store(str(tmp_path / "r.sqlite")) as store:
        run_averaged(config, seeds=[1, 2], store=store)
        run_averaged(config.with_overrides(protocol="epidemic"), seeds=[1],
                     store=store)
        summary = store.summary()
    assert summary["results"] == 3
    cells = {(cell["scenario"], cell["protocol"]): cell["runs"]
             for cell in summary["cells"]}
    assert cells == {("store-tiny", "spray-and-wait"): 2,
                     ("store-tiny", "epidemic"): 1}


def test_in_memory_store_supported():
    config = tiny_config()
    report = run_scenario(config)
    store = ResultsStore(":memory:")
    try:
        assert store.put(config, report)
        assert store.get(config) is not None
    finally:
        store.close()


# --------------------------------------------------------- checkpoint linkage
def test_checkpoint_manifest_records_config_hash():
    import io
    import zipfile

    from repro.experiments.builder import build_scenario

    config = tiny_config(sim_time=50.0)
    built = build_scenario(config)
    built.simulator.run(until=10.0)
    blob = save_checkpoint_bytes(built.world, config=config)
    built.world.stop()
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        manifest = json.loads(archive.read("MANIFEST.json"))
    assert manifest["config_hash"] == config.config_hash()
