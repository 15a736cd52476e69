"""Versioned checkpoints of live simulation worlds.

A checkpoint captures the *entire* reachable simulation state rooted at the
:class:`~repro.world.world.World` — positions, movement mirrors, connectivity
caches, live connections, router state, buffers, contact histories, community
caches, RNG streams, the event queue, the in-flight stats collector and the
columnar transfer engine (its rows pickle keyed by ``established_seq``, so
mid-transfer byte counts and connection wiring survive a round trip) — so a
long-horizon run can stop at any tick boundary and resume later (in the same
or a fresh process) with **byte-identical** final reports.  The contract is
pinned by the resume-equality harness in :mod:`repro.testing` and documented
in ``docs/checkpointing.md``.

Container format (one ZIP file, extension-agnostic, ``.ckpt`` by convention):

``MANIFEST.json``
    Magic string, format version, payload digests, the simulation clock and
    (optionally) the full embedded :class:`~repro.experiments.scenario.ScenarioConfig`.
``state.pkl``
    Pickle (protocol 5) of the world object graph.  Large numeric arrays are
    *externalized* through pickle persistent ids instead of being inlined.
``arrays/<n>.npy``
    The externalized arrays, one standard NPY entry each.

Every entry is written with a fixed timestamp and in a fixed order, so saving
the same state twice yields byte-identical files; the codec property tests
pin save→load→save byte equality.  All failure modes — truncation, flipped
bytes, missing entries, unknown format versions — surface as the typed
:exc:`CheckpointError`, never as garbage state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import pickle
import zipfile
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.sim._collector import collector_paused
from repro.version import __version__

__all__ = [
    "MAGIC", "FORMAT_VERSION", "CheckpointError", "RestoredCheckpoint",
    "encode_array", "decode_array", "encode_state", "decode_state",
    "config_to_payload", "config_from_payload",
    "save_checkpoint", "save_checkpoint_bytes",
    "load_checkpoint", "load_checkpoint_bytes", "read_manifest",
]

#: manifest magic — identifies the container independently of the filename
MAGIC = "repro-checkpoint"
#: bump on any incompatible layout change; readers reject other versions.
#: 2: the world lost its tick-mode flags (and their attributes), and the
#: embedded scenario config its five tick-mode fields
#: 3: the stats collector lost its lists record store, the sharded detector
#: its process-pool mode, and the embedded scenario config its detector,
#: worker and record-mode fields
#: 4: the stats collector gained the move-phase split (``moves_batched``,
#: ``moves_loop``) and the movement engine lost its ``batch_enabled`` flag
#: 5: MaxProp keeps its known likelihood vectors in a dense cost table, and
#: the stats collector gained the knowledge-layer split (``kernel_runs``,
#: ``memd_hits``)
#: 6: per-contact routing state (considered sets, first-evaluation flags)
#: moved from the routers onto the connections, the router store gained
#: its link-listener column and link-event rows, and the transfer engine
#: its endpoint-row columns
#: 7: the world lost its routers-phase counters (the stats collector keeps
#: them); a scalar telemetry meter the collector gains later starts from
#: zero on restore (``StatsCollector.__setstate__``), so meters need no bump
#: 8: nodes pickle their connection maps empty (the world rebuilds them from
#: its link table), connections lost their engine link and create their
#: transfer queue on first use, the transfer engine lost its depth column,
#: the router store its occupancy column and the stats collector its
#: open-contact table (contact records read ``Connection.established_at``)
#: 9: the connectivity detector lost its sharded variant and that
#: variant's worker pool; the one detector keeps a cached candidate set
#: (snapshot, ranges, candidate columns) instead of a k-d tree
#: 10: nodes, path followers and message buffers are slotted (they pickle
#: slot state, not a ``__dict__``), a node stores no default name, paths
#: keep their waypoints once as float pairs, and every node of a
#: random-waypoint world shares one movement model
FORMAT_VERSION = 10
#: arrays with at least this many elements move to their own NPY entry
ARRAY_EXTERNALIZE_THRESHOLD = 32

_MANIFEST_NAME = "MANIFEST.json"
_STATE_NAME = "state.pkl"
_ARRAY_TAG = "repro-array"


class CheckpointError(RuntimeError):
    """Raised for unreadable, corrupted or version-incompatible snapshots."""


@dataclasses.dataclass
class RestoredCheckpoint:
    """A loaded snapshot: the live world plus its manifest metadata."""

    world: Any
    manifest: Dict[str, Any]
    #: the scenario the snapshot was taken from (``None`` if the saver did
    #: not embed one); drives report finalisation on resumed CLI runs
    config: Optional[Any] = None

    @property
    def sim_now(self) -> float:
        """Simulation time the snapshot was taken at."""
        return float(self.manifest["sim_now"])


# ------------------------------------------------------------- array codec
def encode_array(array: np.ndarray) -> bytes:
    """Serialize one numeric array to standard NPY bytes (deterministic)."""
    stream = io.BytesIO()
    np.lib.format.write_array(stream, array, allow_pickle=False)
    return stream.getvalue()


def decode_array(data: bytes) -> np.ndarray:
    """Inverse of :func:`encode_array`; raises :exc:`CheckpointError`.

    The decoded array always *owns* its data (``read_array`` may hand back a
    reshaped view): restored state must be indistinguishable from never-saved
    state, including for a later :func:`encode_state` pass — the externalize
    predicate keys on ``base is None``.
    """
    try:
        array = np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
    except Exception as error:
        raise CheckpointError(f"corrupted array entry: {error}") from error
    return array if array.base is None else array.copy()


# ------------------------------------------------------------- state codec
class _StatePickler(pickle.Pickler):
    """Protocol-5 pickler that externalizes large numeric base arrays.

    Only arrays that *own* their data (``base is None``) are externalized:
    views pickle inline through their normal copying path, and the world
    restore re-establishes the one aliasing relationship that matters
    (follower position rows, see ``World.__setstate__``).  Repeats of the
    same array object map to the same entry, so shared references survive.
    """

    def __init__(self, stream: io.BytesIO, arrays: List[np.ndarray]) -> None:
        super().__init__(stream, protocol=5)
        self._arrays = arrays
        self._index_of: Dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Optional[Tuple[str, int]]:
        if (type(obj) is np.ndarray and obj.base is None
                and not obj.dtype.hasobject
                and obj.size >= ARRAY_EXTERNALIZE_THRESHOLD):
            index = self._index_of.get(id(obj))
            if index is None:
                index = len(self._arrays)
                self._arrays.append(obj)
                self._index_of[id(obj)] = index
            return (_ARRAY_TAG, index)
        return None


class _StateUnpickler(pickle.Unpickler):
    """Resolves array persistent ids against the loaded entry list.

    Each entry is decoded exactly once by the caller, so two references to
    the same persistent id resolve to the *same* array object — object
    identity (e.g. a detector and a cache sharing one buffer) round-trips.
    """

    def __init__(self, stream: io.BytesIO, arrays: List[np.ndarray]) -> None:
        super().__init__(stream)
        self._arrays = arrays

    def persistent_load(self, pid: Any) -> np.ndarray:
        try:
            tag, index = pid
            if tag == _ARRAY_TAG:
                return self._arrays[index]
        except (TypeError, ValueError, IndexError):
            pass
        raise CheckpointError(f"unresolvable persistent id {pid!r}")


def encode_state(root: Any) -> Tuple[bytes, List[np.ndarray]]:
    """Pickle *root* with externalized arrays; returns ``(bytes, arrays)``."""
    stream = io.BytesIO()
    arrays: List[np.ndarray] = []
    _StatePickler(stream, arrays).dump(root)
    return stream.getvalue(), arrays


def decode_state(data: bytes, arrays: List[np.ndarray]) -> Any:
    """Inverse of :func:`encode_state`; raises :exc:`CheckpointError`.

    Unpickling allocates only the restored world's long-lived graph, so it
    runs with the cyclic garbage collector paused.
    """
    try:
        with collector_paused():
            return _StateUnpickler(io.BytesIO(data), arrays).load()
    except CheckpointError:
        raise
    except Exception as error:
        raise CheckpointError(
            f"snapshot state failed to deserialize: {error}") from error


# ------------------------------------------------------------ config codec
#: ScenarioConfig fields whose tuple values JSON flattens to lists
_TUPLE_FIELDS = ("stop_wait", "message_interval", "trace_window")


def config_to_payload(config: Any) -> Dict[str, Any]:
    """JSON-friendly dict of a :class:`ScenarioConfig` (for the manifest).

    Delegates to :meth:`ScenarioConfig.canonical_payload` — the one
    canonicalization shared with the results store, so a manifest's
    embedded config and a store row serialise a given scenario
    identically.
    """
    return config.canonical_payload()


def config_from_payload(payload: Dict[str, Any]) -> Any:
    """Rebuild the embedded :class:`ScenarioConfig` from manifest JSON."""
    from repro.experiments.scenario import ScenarioConfig

    data = dict(payload)
    for key in _TUPLE_FIELDS:
        if data.get(key) is not None:
            data[key] = tuple(data[key])
    try:
        return ScenarioConfig(**data)
    except (TypeError, ValueError) as error:
        raise CheckpointError(
            f"snapshot carries an invalid scenario config: {error}") from error


# --------------------------------------------------------------- container
def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_entry(archive: zipfile.ZipFile, name: str, data: bytes) -> None:
    # fixed timestamp + attributes: the container's bytes depend only on the
    # simulation state, never on the wall clock (save→load→save equality)
    info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    info.external_attr = 0o644 << 16
    archive.writestr(info, data)


def save_checkpoint_bytes(world: Any, *, config: Any = None,
                          metadata: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize *world* to checkpoint container bytes.

    Parameters
    ----------
    world:
        The live :class:`~repro.world.world.World` (or subclass).  Everything
        reachable from it — simulator, event queue, routers, stats — is
        captured.
    config:
        Optional :class:`~repro.experiments.scenario.ScenarioConfig` to embed
        in the manifest; required for ``repro run --resume`` (the resumed
        process rebuilds the report from it).
    metadata:
        Optional extra JSON-serializable manifest fields (under ``"user"``).
    """
    state, arrays = encode_state(world)
    blobs = [encode_array(array) for array in arrays]
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(_sha256(blob).encode("ascii"))
    manifest: Dict[str, Any] = {
        "magic": MAGIC,
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "world_class": type(world).__name__,
        "sim_now": float(world.simulator.now),
        "updates": int(getattr(world, "updates", 0)),
        "num_nodes": int(world.num_nodes),
        "array_count": len(blobs),
        "state_sha256": _sha256(state),
        "arrays_sha256": digest.hexdigest(),
        "config": config_to_payload(config) if config is not None else None,
        # the canonical scenario identity hash (defaults dropped, name/seed
        # excluded) — the same digest the results store dedupes on, so a
        # snapshot can be matched against store rows without re-hashing
        "config_hash": config.config_hash() if config is not None else None,
        "user": metadata or {},
    }
    stream = io.BytesIO()
    with zipfile.ZipFile(stream, "w") as archive:
        _write_entry(archive, _MANIFEST_NAME,
                     json.dumps(manifest, indent=2, sort_keys=True)
                     .encode("utf-8"))
        _write_entry(archive, _STATE_NAME, state)
        for index, blob in enumerate(blobs):
            _write_entry(archive, f"arrays/{index}.npy", blob)
    return stream.getvalue()


def save_checkpoint(world: Any, path: str, *, config: Any = None,
                    metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write a checkpoint of *world* to *path*; returns the manifest."""
    data = save_checkpoint_bytes(world, config=config, metadata=metadata)
    with open(path, "wb") as handle:
        handle.write(data)
    return json.loads(_read_entry(zipfile.ZipFile(io.BytesIO(data)),
                                  _MANIFEST_NAME).decode("utf-8"))


def _read_entry(archive: zipfile.ZipFile, name: str) -> bytes:
    try:
        return archive.read(name)
    except KeyError:
        raise CheckpointError(
            f"snapshot is missing its {name!r} entry") from None
    except Exception as error:  # bad CRC, truncated stream, zlib errors
        raise CheckpointError(
            f"snapshot entry {name!r} is corrupted: {error}") from error


def _load_manifest(archive: zipfile.ZipFile) -> Dict[str, Any]:
    raw = _read_entry(archive, _MANIFEST_NAME)
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"unreadable snapshot manifest: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("magic") != MAGIC:
        raise CheckpointError(
            "not a repro checkpoint (manifest magic mismatch)")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})")
    return manifest


def read_manifest(path: str) -> Dict[str, Any]:
    """Read and validate just the manifest of the snapshot at *path*."""
    with _open_archive_file(path) as archive:
        return _load_manifest(archive)


def _open_archive_file(path: str) -> zipfile.ZipFile:
    try:
        return zipfile.ZipFile(path, "r")
    except FileNotFoundError:
        raise CheckpointError(f"no snapshot at {path!r}") from None
    except (OSError, zipfile.BadZipFile) as error:
        raise CheckpointError(
            f"unreadable snapshot {path!r}: {error}") from error


def _load_from_archive(archive: zipfile.ZipFile) -> RestoredCheckpoint:
    manifest = _load_manifest(archive)
    state = _read_entry(archive, _STATE_NAME)
    if _sha256(state) != manifest["state_sha256"]:
        raise CheckpointError(
            "snapshot state checksum mismatch (truncated or corrupted file)")
    digest = hashlib.sha256()
    arrays: List[np.ndarray] = []
    for index in range(int(manifest["array_count"])):
        blob = _read_entry(archive, f"arrays/{index}.npy")
        digest.update(_sha256(blob).encode("ascii"))
        arrays.append(decode_array(blob))
    if digest.hexdigest() != manifest["arrays_sha256"]:
        raise CheckpointError(
            "snapshot array checksum mismatch (truncated or corrupted file)")
    world = decode_state(state, arrays)
    payload = manifest.get("config")
    config = config_from_payload(payload) if payload else None
    return RestoredCheckpoint(world=world, manifest=manifest, config=config)


def load_checkpoint_bytes(data: bytes) -> RestoredCheckpoint:
    """Restore a world from checkpoint container bytes."""
    try:
        archive = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as error:
        raise CheckpointError(
            f"not a checkpoint container: {error}") from error
    with archive:
        return _load_from_archive(archive)


def load_checkpoint(path: str) -> RestoredCheckpoint:
    """Restore a world from the snapshot file at *path*."""
    with _open_archive_file(path) as archive:
        return _load_from_archive(archive)
