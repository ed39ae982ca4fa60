"""On-disk caching of pipeline stage artefacts and training-run manifests.

``NetTAGPipeline`` derives a chain of artefacts before any gradient step runs:
synthesised netlists with their cones/TAGs and alignment data, the Step-1
expression corpus, and the Step-2 pre-training samples.  All of it is a pure
function of (configuration, seed, upstream model state), so
:class:`ArtifactStore` caches each stage on disk keyed by a fingerprint of
those inputs: a rerun with the same configuration loads the artefact instead
of recomputing it, and any config/seed change produces a different key and a
clean recompute.  Every stage run — cached or computed — is timed, and the
timings surface in the pipeline summary so cache hits are observable.

:class:`RunManifest` is the small JSON stamp a resumable pre-training run
keeps next to its checkpoints: which run they belong to, and where each
stage's snapshot lives.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from ..nn.serialization import atomic_write

PathLike = Union[str, Path]

_PICKLE_PROTOCOL = 4
_FORMAT_VERSION = 1


def _library_version() -> str:
    from .. import __version__

    return __version__


def fingerprint(payload: Mapping[str, Any]) -> str:
    """Stable short hash of a JSON-serialisable mapping (sorted keys)."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class StageTiming:
    """Outcome of one pipeline stage: how long it took and whether it was cached."""

    name: str
    seconds: float = 0.0
    cached: bool = False
    key: str = ""

    def describe(self) -> str:
        """One human-readable report line (cache hits marked)."""
        source = "cache hit" if self.cached else "computed"
        return f"stage {self.name}: {self.seconds:.2f}s ({source})"


class StageRun:
    """Context for one stage execution handed out by :meth:`ArtifactStore.stage`."""

    def __init__(self, store: "ArtifactStore", name: str, key: str) -> None:
        self._store = store
        self.name = name
        self.key = key
        self.timing = StageTiming(name=name, key=key)
        self._start = 0.0

    @property
    def cached(self) -> bool:
        """Whether the stage's payload was served from the store."""
        return self._store.contains(self.name, self.key)

    def load(self) -> Any:
        """Read the cached payload (marks the run as a cache hit)."""
        value = self._store.load(self.name, self.key)
        self.timing.cached = True
        return value

    def save(self, value: Any) -> None:
        """Persist the freshly computed payload under the stage key."""
        self._store.save(self.name, self.key, value)

    def __enter__(self) -> "StageRun":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.timing.seconds = time.perf_counter() - self._start
        if exc_type is None:
            self._store.timings.append(self.timing)


class ArtifactStore:
    """Pickle-backed cache of pipeline stage artefacts keyed by fingerprint.

    With ``root=None`` the store is disabled: every stage reports a cache miss
    and nothing is written, so callers need no branching.  Corrupt or
    unreadable entries behave like misses and are recomputed.
    """

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = Path(root) if root is not None else None
        self.timings: List[StageTiming] = []
        self.hits = 0
        self.misses = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)

    @property
    def enabled(self) -> bool:
        """Whether a cache directory is attached (disabled stores compute)."""
        return self.root is not None

    # ------------------------------------------------------------------
    def _entry_path(self, stage: str, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{stage}-{key}.pkl"

    def _manifest_path(self, stage: str, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{stage}-{key}.json"

    def contains(self, stage: str, key: str) -> bool:
        """Whether a payload exists for ``(stage, key)`` with a valid manifest."""
        if self.root is None:
            return False
        entry = self._entry_path(stage, key)
        manifest = self._manifest_path(stage, key)
        if not entry.exists() or not manifest.exists():
            return False
        try:
            info = json.loads(manifest.read_text())
        except (json.JSONDecodeError, OSError):
            return False
        # An artefact written by a different library version may encode
        # different preprocessing behaviour for the same config+seed key, so
        # it behaves like a miss and gets recomputed (mirroring the
        # library_version stamp on model checkpoints).
        return (
            info.get("format_version") == _FORMAT_VERSION
            and info.get("library_version") == _library_version()
        )

    def load(self, stage: str, key: str) -> Any:
        """Unpickle the payload stored under ``(stage, key)``."""
        if not self.contains(stage, key):
            raise KeyError(f"no cached artefact for stage {stage!r} key {key}")
        with self._entry_path(stage, key).open("rb") as handle:
            value = pickle.load(handle)
        self.hits += 1
        return value

    def save(self, stage: str, key: str, value: Any) -> None:
        """Atomically pickle a payload under ``(stage, key)``.

        The manifest beside it records the payload's size and sha256.  A
        disabled store only counts the miss.
        """
        self.misses += 1
        if self.root is None:
            return
        # Write atomically (temp + rename): an interrupted run must never
        # leave a truncated pickle behind a valid-looking manifest.
        entry = self._entry_path(stage, key)
        blob = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
        digest = hashlib.sha256(blob).hexdigest()

        def _write_pickle(tmp: Path) -> None:
            tmp.write_bytes(blob)

        atomic_write(entry, entry.name + ".tmp", _write_pickle)
        manifest = {
            "stage": stage,
            "key": key,
            "format_version": _FORMAT_VERSION,
            "library_version": _library_version(),
            "created": time.time(),
            "bytes": len(blob),
            "sha256": digest,
        }
        text = json.dumps(manifest, indent=2)
        path = self._manifest_path(stage, key)
        atomic_write(path, path.name + ".tmp", lambda tmp: tmp.write_text(text))

    # ------------------------------------------------------------------
    def stage(self, name: str, key_payload: Mapping[str, Any]) -> StageRun:
        """Timed stage context; check ``run.cached`` then ``load()`` or ``save()``."""
        return StageRun(self, name, fingerprint(key_payload))

    def get_or_compute(
        self, name: str, key_payload: Mapping[str, Any], compute: Callable[[], Any]
    ) -> Any:
        """Load the stage artefact if cached, otherwise compute and store it."""
        with self.stage(name, key_payload) as run:
            if run.cached:
                try:
                    return run.load()
                except (pickle.PickleError, EOFError, OSError):
                    run.timing.cached = False  # corrupt entry: fall through
            value = compute()
            run.save(value)
            return value

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters accumulated by this store instance."""
        return {"hits": self.hits, "misses": self.misses}


# ----------------------------------------------------------------------
# Run manifest (resumable multi-stage training)
# ----------------------------------------------------------------------
class RunManifest:
    """The run key a multi-stage training run stamps on its checkpoint directory.

    Lives in the checkpoint directory as ``manifest.json``.  Each training
    stage resumes from its own checkpoint (:meth:`checkpoint_path`); the
    manifest only ties those checkpoints to the run's configuration and
    corpus, and clears them when a different run opens the directory.
    """

    def __init__(self, directory: PathLike, run_key: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "manifest.json"
        self.run_key = run_key
        if not self.path.exists():
            self._write()
            return
        try:
            loaded = json.loads(self.path.read_text())
        except json.JSONDecodeError:
            loaded = None
        if not isinstance(loaded, dict) or loaded.get("run_key") != run_key:
            # The directory belongs to a run with a different config/seed:
            # its checkpoints cannot be resumed, so clear them out.
            self.reset()

    # ------------------------------------------------------------------
    def checkpoint_path(self, stage: str) -> Path:
        """Where the stage's trainer checkpoint lives.

        Both the periodic (in-flight) snapshots and the stage's final snapshot
        are written to this one path — a final-step snapshot simply replays as
        a no-op on resume.
        """
        return self.directory / f"{stage}.ckpt.npz"

    def reset(self) -> None:
        """Delete the stage checkpoints and stamp this run's key.

        Only the manifest's own stage checkpoints (``*.ckpt.npz``) are
        removed — the directory may also hold unrelated files such as a saved
        model the user pointed ``checkpoint_dir`` at.
        """
        for stale in self.directory.glob("*.ckpt.npz"):
            stale.unlink()
        self._write()

    def _write(self) -> None:
        # Atomic: a write torn by a crash would read as a different run on
        # the next open, and that reset deletes the checkpoints to resume.
        text = json.dumps({"run_key": self.run_key}, indent=2)
        atomic_write(self.path, self.path.name + ".tmp", lambda tmp: tmp.write_text(text))
