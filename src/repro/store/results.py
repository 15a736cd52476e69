"""The append-only, content-addressed results store.

A :class:`ResultsStore` is a single SQLite file (stdlib :mod:`sqlite3`, no
extra dependencies) holding one row per *completed simulation run*, keyed by
the canonical identity

    ``(scenario_name, protocol, seed, config_hash)``

where ``config_hash`` is :meth:`ScenarioConfig.config_hash()
<repro.experiments.scenario.ScenarioConfig.config_hash>` — a SHA-256 over the
scenario's canonical identity payload (fields sorted, defaults dropped,
name/seed excluded).  Two configs collide exactly when they describe the same
physics of the same named cell, so a store lookup is an *exact* dedupe: the
experiment drivers skip a cell iff rerunning it would reproduce the stored
report byte for byte.

The store is append-only by construction: :meth:`ResultsStore.put` is an
``INSERT OR IGNORE`` (first write wins, duplicates are dropped, nothing is
ever updated or deleted), each put commits its own transaction, and SQLite's
locking makes concurrent writers — several sweep processes sharing one store
file — safe without coordination (WAL journal + busy timeout).

Each row carries provenance: the repro version that produced it, a UTC
timestamp and the wall-clock seconds the run took.  The payloads are the
*canonical* serialisations — ``ScenarioConfig.canonical_payload()`` and
the report's outcome (``canonical_report_json``, telemetry excluded) — so a
report loaded from the store compares byte-identical to a fresh run of the
same cell.  See ``docs/results-store.md``.
"""

from __future__ import annotations

import datetime
import json
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.scenario import ScenarioConfig
from repro.metrics.reports import SimulationReport, canonical_report_json
from repro.version import __version__

#: results-store schema version (bumped on incompatible layout changes)
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    scenario_name TEXT    NOT NULL,
    protocol      TEXT    NOT NULL,
    seed          INTEGER NOT NULL,
    config_hash   TEXT    NOT NULL,
    config_json   TEXT    NOT NULL,
    report_json   TEXT    NOT NULL,
    repro_version TEXT    NOT NULL,
    created_utc   TEXT    NOT NULL,
    wall_seconds  REAL,
    PRIMARY KEY (scenario_name, protocol, seed, config_hash)
);
"""


class StoreError(Exception):
    """A results-store file is unusable (wrong schema, not a store, ...)."""


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")


class ResultsStore:
    """Append-only store of simulation reports keyed by canonical identity.

    Parameters
    ----------
    path:
        SQLite file path (created if missing) or ``":memory:"`` for an
        ephemeral store.
    timeout:
        Seconds a write waits on another process's lock before failing.

    The instance is a context manager (``with open_store(p) as store:``) and
    is safe to share across threads (one internal lock serialises access to
    the connection; cross-process safety comes from SQLite itself).
    """

    def __init__(self, path: str, *, timeout: float = 30.0) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False)
        try:
            self._initialise(timeout)
        except sqlite3.DatabaseError as error:
            self._connection.close()
            raise StoreError(
                f"{path!r} is not a usable results store: {error}") from error

    def _initialise(self, timeout: float) -> None:
        with self._lock:
            if self.path != ":memory:":
                # WAL lets readers proceed under a writer and is the mode
                # SQLite recommends for multi-process append workloads
                self._enable_wal(timeout)
            self._connection.executescript(_SCHEMA)
            # two processes opening a fresh file may both get here before
            # either commits: OR IGNORE makes the stamp idempotent, and the
            # re-read validates whichever version won
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)))
            self._connection.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) "
                "VALUES (?, ?)", ("created_utc", _utc_now()))
            self._connection.commit()
            row = self._connection.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            if row is None or int(row[0]) != SCHEMA_VERSION:
                found = None if row is None else row[0]
                raise sqlite3.DatabaseError(
                    f"store schema version {found} != supported "
                    f"{SCHEMA_VERSION}")

    def _enable_wal(self, timeout: float) -> None:
        # Switching a fresh file to WAL while another connection holds its
        # write lock fails at once with "database is locked": SQLite does
        # not run the busy handler for it.  Openers racing on a new store
        # hit this, so retry until the busy timeout would have expired.
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._connection.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if ("locked" not in str(error)
                        or time.monotonic() >= deadline):
                    raise
                time.sleep(0.005)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultsStore {self.path!r} ({len(self)} results)>"

    def _execute(self, sql: str, parameters: Sequence[object] = ()):
        with self._lock:
            if self._connection is None:
                raise StoreError(f"store {self.path!r} is closed")
            return self._connection.execute(sql, parameters)

    # ----------------------------------------------------------------- writes
    def put(self, config: ScenarioConfig, report: SimulationReport, *,
            wall_seconds: Optional[float] = None) -> bool:
        """Record one finished run; returns whether a new row was written.

        First write wins: a second put of the same identity key is ignored
        (append-only, never an update), so concurrent writers racing on one
        cell both succeed and the store keeps exactly one row.
        """
        key = config.identity_key()
        row = (
            key[0], key[1], key[2], key[3],
            json.dumps(config.canonical_payload(), sort_keys=True),
            canonical_report_json(report),
            __version__,
            _utc_now(),
            None if wall_seconds is None else float(wall_seconds),
        )
        with self._lock:
            if self._connection is None:
                raise StoreError(f"store {self.path!r} is closed")
            cursor = self._connection.execute(
                "INSERT OR IGNORE INTO results (scenario_name, protocol, "
                "seed, config_hash, config_json, report_json, repro_version, "
                "created_utc, wall_seconds) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row)
            self._connection.commit()
            return cursor.rowcount > 0

    # ------------------------------------------------------------------ reads
    def get(self, config: ScenarioConfig) -> Optional[SimulationReport]:
        """The stored report for *config*'s identity, or ``None``."""
        row = self._execute(
            "SELECT report_json FROM results WHERE scenario_name=? AND "
            "protocol=? AND seed=? AND config_hash=?",
            config.identity_key()).fetchone()
        if row is None:
            return None
        return SimulationReport.from_dict(json.loads(row[0]))

    def get_many(self, configs: Sequence[ScenarioConfig]
                 ) -> List[Optional[SimulationReport]]:
        """One :meth:`get` per config, in order (``None`` for misses)."""
        return [self.get(config) for config in configs]

    def __contains__(self, config: ScenarioConfig) -> bool:
        return self.get(config) is not None

    def __len__(self) -> int:
        return int(self._execute("SELECT COUNT(*) FROM results").fetchone()[0])

    def keys(self) -> List[Tuple[str, str, int, str]]:
        """Every stored identity key, in insertion (append) order."""
        rows = self._execute(
            "SELECT scenario_name, protocol, seed, config_hash FROM results "
            "ORDER BY rowid").fetchall()
        return [(name, protocol, int(seed), config_hash)
                for name, protocol, seed, config_hash in rows]

    def provenance(self, config: ScenarioConfig) -> Optional[Dict[str, object]]:
        """Provenance of the stored run for *config* (``None`` on a miss)."""
        row = self._execute(
            "SELECT repro_version, created_utc, wall_seconds FROM results "
            "WHERE scenario_name=? AND protocol=? AND seed=? AND "
            "config_hash=?", config.identity_key()).fetchone()
        if row is None:
            return None
        return {"repro_version": row[0], "created_utc": row[1],
                "wall_seconds": row[2]}

    def summary(self) -> Dict[str, object]:
        """Store-level summary (path, size, per-scenario counts)."""
        rows = self._execute(
            "SELECT scenario_name, protocol, COUNT(*) FROM results "
            "GROUP BY scenario_name, protocol "
            "ORDER BY scenario_name, protocol").fetchall()
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "results": len(self),
            "cells": [{"scenario": name, "protocol": protocol,
                       "runs": int(count)} for name, protocol, count in rows],
        }


def open_store(path: str, *, timeout: float = 30.0) -> ResultsStore:
    """Open (creating if necessary) the results store at *path*."""
    return ResultsStore(path, timeout=timeout)
