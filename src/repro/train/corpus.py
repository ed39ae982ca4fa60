"""Sharded on-disk training corpora with streaming minibatch access.

Pre-training data (expression pairs, Step-2 pre-training samples) previously
lived fully materialised in the training task's memory for the whole run.
:class:`ShardedCorpus` replaces that with fingerprinted on-disk shards backed
by an :class:`~repro.train.artifacts.ArtifactStore` (atomic writes, version
stamps), so a task holds only the shard(s) a minibatch actually touches:

* :meth:`ShardedCorpus.build` splits an item sequence into fixed-size shards,
  pickles each one atomically and records a content fingerprint per shard in
  a small JSON manifest (plus a corpus-level fingerprint over all shards).
* :meth:`ShardedCorpus.open` attaches to an existing corpus and verifies the
  manifest; :meth:`ShardedCorpus.build_or_open` is the idempotent entry the
  training tasks use — the first run builds, later runs (and resumes) open
  the very same shards.
* :meth:`ShardedCorpus.fetch` resolves arbitrary item indices shard-by-shard
  through a small LRU of loaded shards, and :meth:`ShardedCorpus.prefetch`
  schedules the *next* shard's load on a background thread (double
  buffering), so shard-local consumers overlap IO/unpickling with compute.

:class:`ShardStreamPlan` is the matching minibatch schedule: it permutes the
shard order once per pass and the item order within each shard, then emits
consecutive batches from one shard at a time — every batch touches exactly
one shard, and the plan hints the corpus to prefetch the next shard in its
(permuted) order.  All cursors — pass index, shard order, the in-flight
within-shard permutation — live in :meth:`ShardStreamPlan.state_dict`, so the
trainer checkpoint captures them and an interrupted run resumes
bit-identically.
"""

from __future__ import annotations

import threading
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..nn.serialization import atomic_write
from .artifacts import ArtifactStore, fingerprint
from .engine import BatchPlan

PathLike = Union[str, Path]

_MANIFEST_SUFFIX = ".corpus.json"


def _shard_key(index: int) -> str:
    return f"{index:05d}"


class ShardedCorpus:
    """A pickled item sequence split into fingerprinted on-disk shards.

    The corpus lives in one directory (its backing
    :class:`~repro.train.artifacts.ArtifactStore` root) under a ``name``; the
    manifest ``<name>.corpus.json`` lists per-shard lengths and content
    fingerprints.
    """

    def __init__(
        self,
        directory: PathLike,
        name: str,
        shard_lengths: Sequence[int],
        shard_digests: Sequence[str],
        cache_shards: int = 2,
    ) -> None:
        self.directory = Path(directory)
        self.name = name
        self.shard_lengths = [int(n) for n in shard_lengths]
        self.shard_digests = list(shard_digests)
        self.cache_shards = max(1, int(cache_shards))
        if len(self.shard_lengths) != len(self.shard_digests):
            raise ValueError("shard_lengths and shard_digests must match")
        self._offsets = np.concatenate([[0], np.cumsum(self.shard_lengths)]).astype(np.int64)
        self._store = ArtifactStore(self.directory)
        self._cache: Dict[int, List[Any]] = {}
        self._cache_order: List[int] = []
        # Shards a prefetch put in the LRU that no load_shard has served yet.
        self._prefetched: Set[int] = set()
        self._lock = threading.Lock()
        self._prefetch_thread: Optional[threading.Thread] = None
        self._prefetch_id: Optional[int] = None
        self._prefetch_result: Optional[List[Any]] = None
        self._prefetch_error: Optional[Exception] = None
        self._failed_prefetch: Optional[Tuple[int, Exception]] = None
        self._prefetch_warned = False
        self.loads = 0
        self.prefetch_hits = 0
        self.prefetch_failures = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Where this corpus's JSON manifest lives."""
        return self.directory / f"{self.name}{_MANIFEST_SUFFIX}"

    @classmethod
    def build(
        cls,
        items: Sequence[Any],
        directory: PathLike,
        name: str = "corpus",
        shard_size: int = 256,
        cache_shards: int = 2,
    ) -> "ShardedCorpus":
        """Shard ``items`` into ``directory`` and write the manifest."""
        if shard_size < 1:
            raise ValueError("shard_size must be positive")
        items = list(items)
        store = ArtifactStore(directory)
        lengths: List[int] = []
        digests: List[str] = []
        for shard_index, start in enumerate(range(0, len(items), shard_size)):
            chunk = items[start : start + shard_size]
            # save() hashes the pickled payload while writing it, so the
            # fingerprint costs no second pass over the shard file.
            digest = store.save(name, _shard_key(shard_index), chunk)
            assert digest is not None  # the store always has a root here
            lengths.append(len(chunk))
            digests.append(digest[:16])
        corpus = cls(directory, name, lengths, digests, cache_shards=cache_shards)
        manifest = {
            "name": name,
            "shard_size": int(shard_size),
            "total": len(items),
            "shard_lengths": lengths,
            "shard_digests": digests,
            "fingerprint": corpus.fingerprint(),
        }
        import json

        payload = json.dumps(manifest, indent=2)
        # Atomic manifest write: a SIGINT here must leave either no manifest
        # (build_or_open rebuilds) or a complete one — never a truncated file.
        atomic_write(
            corpus.manifest_path,
            corpus.manifest_path.name + ".tmp",
            lambda tmp: tmp.write_text(payload),
        )
        return corpus

    @classmethod
    def open(cls, directory: PathLike, name: str = "corpus", cache_shards: int = 2) -> "ShardedCorpus":
        """Attach to an existing corpus; raises ``FileNotFoundError`` if absent."""
        import json

        path = Path(directory) / f"{name}{_MANIFEST_SUFFIX}"
        if not path.exists():
            raise FileNotFoundError(f"no corpus manifest at {path}")
        try:
            manifest = json.loads(path.read_text())
            shard_lengths = manifest["shard_lengths"]
            shard_digests = manifest["shard_digests"]
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            # A corrupt/truncated manifest behaves like an absent corpus, so
            # build_or_open self-heals by rebuilding instead of wedging every
            # later run on the same unreadable file.
            raise FileNotFoundError(
                f"corpus manifest at {path} is unreadable ({error}); "
                "treat the corpus as absent and rebuild"
            ) from error
        corpus = cls(
            directory,
            name,
            shard_lengths,
            shard_digests,
            cache_shards=cache_shards,
        )
        store = corpus._store
        for index in range(corpus.num_shards):
            if not store.contains(name, _shard_key(index)):
                raise FileNotFoundError(
                    f"corpus {name!r} at {directory} is missing shard {index} "
                    "(stale or partially written manifest)"
                )
        return corpus

    @classmethod
    def build_or_open(
        cls,
        items: Sequence[Any],
        directory: PathLike,
        name: str = "corpus",
        shard_size: int = 256,
        cache_shards: int = 2,
    ) -> "ShardedCorpus":
        """Open the corpus if its manifest already exists, else build it.

        The idempotent entry point of the training tasks: the first run
        builds, a rerun or resume opens the shards already on disk.  Callers
        must make ``name`` content-derived (e.g. via
        :func:`~repro.train.artifacts.fingerprint` of the item identity), so a
        stale corpus from a different run can never be opened by accident.
        """
        try:
            return cls.open(directory, name=name, cache_shards=cache_shards)
        except FileNotFoundError:
            return cls.build(
                items, directory, name=name, shard_size=shard_size, cache_shards=cache_shards
            )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._offsets[-1])

    @property
    def num_shards(self) -> int:
        """How many on-disk shards the corpus spans."""
        return len(self.shard_lengths)

    def fingerprint(self) -> str:
        """Corpus-level content hash (over the per-shard payload digests)."""
        return fingerprint({"name": self.name, "shards": self.shard_digests})

    def shard_of(self, index: int) -> int:
        """The shard holding global item ``index``."""
        if not 0 <= index < len(self):
            raise IndexError(f"index {index} out of range for corpus of {len(self)}")
        return int(np.searchsorted(self._offsets, index, side="right") - 1)

    def shard_bounds(self, shard_index: int) -> tuple:
        """Global ``[start, end)`` item range of one shard."""
        return int(self._offsets[shard_index]), int(self._offsets[shard_index + 1])

    # ------------------------------------------------------------------
    # Loading (LRU of shards + background double buffer)
    # ------------------------------------------------------------------
    def _load_payload(self, shard_index: int) -> List[Any]:
        return list(self._store.load(self.name, _shard_key(shard_index)))

    def _cache_put(self, shard_index: int, payload: List[Any]) -> None:
        self._cache[shard_index] = payload
        if shard_index in self._cache_order:
            self._cache_order.remove(shard_index)
        self._cache_order.append(shard_index)
        while len(self._cache_order) > self.cache_shards:
            evicted = self._cache_order.pop(0)
            self._cache.pop(evicted, None)
            self._prefetched.discard(evicted)

    def _harvest_prefetch(self, wait_for: Optional[int] = None) -> None:
        """Fold a finished (or awaited) prefetch into the LRU and free the slot."""
        with self._lock:
            thread = self._prefetch_thread
            expected = self._prefetch_id
        if thread is None:
            return
        if wait_for is not None and expected == wait_for:
            thread.join()
        elif thread.is_alive():
            return  # still loading some other shard; leave it in flight
        else:
            thread.join()
        with self._lock:
            payload = self._prefetch_result
            shard_index = self._prefetch_id
            error = self._prefetch_error
            self._prefetch_thread = None
            self._prefetch_id = None
            self._prefetch_result = None
            self._prefetch_error = None
            if error is not None and shard_index is not None:
                self.prefetch_failures += 1
                self._failed_prefetch = (shard_index, error)
                warn = not self._prefetch_warned
                self._prefetch_warned = True
            else:
                warn = False
            if payload is not None and shard_index is not None:
                if shard_index not in self._cache:
                    self._cache_put(shard_index, payload)
                    self._prefetched.add(shard_index)
                if self._failed_prefetch is not None and self._failed_prefetch[0] == shard_index:
                    self._failed_prefetch = None  # a successful retry clears it
        if warn:
            warnings.warn(
                f"corpus '{self.name}': background prefetch of shard "
                f"{shard_index} failed ({error!r}); the error re-raises on the "
                "next load of that shard (warning once per corpus)",
                RuntimeWarning,
                stacklevel=3,
            )

    def load_shard(self, shard_index: int) -> List[Any]:
        """The items of one shard, via the LRU / prefetch double buffer.

        If the background prefetch of *this* shard failed, its captured
        exception re-raises here — eagerly, with the real cause — instead of
        surfacing later as an unexplained synchronous load error.
        """
        self._harvest_prefetch(wait_for=shard_index)
        with self._lock:
            if self._failed_prefetch is not None and self._failed_prefetch[0] == shard_index:
                _, error = self._failed_prefetch
                self._failed_prefetch = None
                raise error
        with self._lock:
            cached = self._cache.get(shard_index)
            if cached is not None:
                if shard_index in self._prefetched:
                    self._prefetched.remove(shard_index)
                    self.prefetch_hits += 1
                self._cache_order.remove(shard_index)
                self._cache_order.append(shard_index)
                return cached
        payload = self._load_payload(shard_index)
        with self._lock:
            self.loads += 1
            self._cache_put(shard_index, payload)
        return payload

    def prefetch(self, shard_index: int) -> None:
        """Start loading one shard on a background thread (double buffering).

        A no-op when the shard is cached or a prefetch is already in flight;
        the loaded payload is handed over on the next :meth:`load_shard` for
        that shard.  A failing background load is captured (not swallowed):
        it bumps ``prefetch_failures``, warns once per corpus, and re-raises
        on the next :meth:`load_shard` of the failed shard.
        """
        if not 0 <= shard_index < self.num_shards:
            return
        self._harvest_prefetch()
        with self._lock:
            if shard_index in self._cache or self._prefetch_thread is not None:
                return

            def _worker() -> None:
                payload = None
                error: Optional[Exception] = None
                try:
                    payload = self._load_payload(shard_index)
                except Exception as exc:  # noqa: BLE001 - re-raised at harvest
                    error = exc
                with self._lock:
                    self._prefetch_result = payload
                    self._prefetch_error = error
                    if error is None:
                        self.loads += 1

            thread = threading.Thread(
                target=_worker, name=f"corpus-prefetch-{self.name}", daemon=True
            )
            self._prefetch_id = shard_index
            self._prefetch_result = None
            self._prefetch_thread = thread
        thread.start()

    def fetch(self, indices: Sequence[int]) -> List[Any]:
        """Items for arbitrary global indices, grouped shard-by-shard."""
        indices = np.asarray(indices, dtype=np.int64)
        result: List[Any] = [None] * len(indices)
        if len(indices) == 0:
            return result
        shard_ids = np.searchsorted(self._offsets, indices, side="right") - 1
        bad = (indices < 0) | (indices >= len(self))
        if bad.any():
            raise IndexError(f"indices out of range for corpus of {len(self)}")
        for shard_index in np.unique(shard_ids):
            payload = self.load_shard(int(shard_index))
            start = int(self._offsets[shard_index])
            for position in np.nonzero(shard_ids == shard_index)[0]:
                result[int(position)] = payload[int(indices[position]) - start]
        return result

    def __getitem__(self, index: int) -> Any:
        start, _ = self.shard_bounds(self.shard_of(index))
        return self.load_shard(self.shard_of(index))[index - start]

    def stats(self) -> Dict[str, int]:
        """Shard-load counters (``prefetch_hits`` = loads served by a prefetch,
        ``prefetch_failures`` = background loads that raised)."""
        return {
            "loads": self.loads,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_failures": self.prefetch_failures,
        }


# ----------------------------------------------------------------------
# Shard-local streaming batch plan
# ----------------------------------------------------------------------
class ShardStreamPlan(BatchPlan):
    """Shard-local minibatch schedule over a sharded corpus.

    Each *pass* draws a shard-order permutation, then for each shard (in that
    order) an item permutation, and emits consecutive batches from the shard.
    Every batch therefore touches exactly one shard — the access pattern the
    :class:`ShardedCorpus` LRU + prefetch double buffer is built for — and the
    plan calls ``corpus.prefetch`` for the next shard in its order as soon as
    a shard starts.

    All randomness is drawn lazily from the trainer's generator exactly when
    a pass/shard begins (mirroring :class:`~repro.train.engine.EpochPlan`), and
    the in-flight cursors are checkpointed via :meth:`state_dict`, so a resumed
    run replays bit-identically.
    """

    def __init__(
        self,
        num_items: int,
        batch_size: int,
        shard_size: int,
        num_steps: Optional[int] = None,
        num_epochs: Optional[int] = None,
        min_batch_size: int = 1,
        corpus: Optional[ShardedCorpus] = None,
    ) -> None:
        if num_items <= 0:
            raise ValueError("ShardStreamPlan needs at least one item")
        if shard_size < 1:
            raise ValueError("shard_size must be positive")
        self.num_items = num_items
        self.batch_size = max(1, min(batch_size, num_items))
        self.shard_size = shard_size
        self.min_batch_size = min_batch_size
        self.corpus = corpus
        if corpus is not None and len(corpus) != num_items:
            raise ValueError(
                f"corpus has {len(corpus)} items but the plan was built for {num_items}"
            )
        lengths = [
            min(shard_size, num_items - start) for start in range(0, num_items, shard_size)
        ]
        self.shard_lengths = np.asarray(lengths, dtype=np.int64)
        self.shard_starts = np.concatenate([[0], np.cumsum(self.shard_lengths)])[:-1]
        self.batches_per_shard = -(-self.shard_lengths // self.batch_size)
        self.steps_per_pass = int(self.batches_per_shard.sum())
        if (num_steps is None) == (num_epochs is None):
            raise ValueError("pass exactly one of num_steps / num_epochs")
        self.num_steps = (
            int(num_steps) if num_steps is not None else int(num_epochs) * self.steps_per_pass
        )
        # In-flight cursors (restored from a checkpoint on resume).
        self._pass_index = -1
        self._order: Optional[np.ndarray] = None
        self._cum_batches: Optional[np.ndarray] = None
        self._perm: Optional[np.ndarray] = None
        self._perm_shard = -1

    @property
    def num_shards(self) -> int:
        """How many shards the plan cycles over."""
        return len(self.shard_lengths)

    def total_steps(self) -> int:
        """Total optimiser steps the plan schedules."""
        return self.num_steps

    def epochs_completed(self, step: int) -> int:
        """Fully consumed passes over the corpus at ``step``."""
        return step // self.steps_per_pass

    # ------------------------------------------------------------------
    def _begin_pass(self, pass_index: int, rng: np.random.Generator) -> None:
        self._order = rng.permutation(self.num_shards)
        self._cum_batches = np.cumsum(self.batches_per_shard[self._order])
        self._pass_index = pass_index
        self._perm = None
        self._perm_shard = -1

    def batch_indices(self, step: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """One shard-local minibatch (global indices) for a global step."""
        pass_index, position = divmod(step, self.steps_per_pass)
        if position == 0 and self._pass_index != pass_index:
            self._begin_pass(pass_index, rng)
        if self._order is None or self._cum_batches is None:
            raise RuntimeError(
                "mid-pass step without a stored shard order; resume state is missing"
            )
        slot = int(np.searchsorted(self._cum_batches, position, side="right"))
        shard = int(self._order[slot])
        batch_in_shard = position - (int(self._cum_batches[slot - 1]) if slot else 0)
        if batch_in_shard == 0 and self._perm_shard != shard:
            self._perm = rng.permutation(int(self.shard_lengths[shard]))
            self._perm_shard = shard
            if self.corpus is not None and slot + 1 < self.num_shards:
                self.corpus.prefetch(int(self._order[slot + 1]))
        if self._perm is None:
            raise RuntimeError(
                "mid-shard step without a stored permutation; resume state is missing"
            )
        start = batch_in_shard * self.batch_size
        local = self._perm[start : start + self.batch_size]
        if len(local) < self.min_batch_size:
            return None
        return np.asarray(self.shard_starts[shard] + local, dtype=np.int64)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The in-flight pass/shard cursors (checkpointed by the trainer)."""
        return {
            "pass_index": self._pass_index,
            "perm_shard": self._perm_shard,
            "order": None if self._order is None else self._order.copy(),
            "perm": None if self._perm is None else self._perm.copy(),
        }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore the cursors saved by :meth:`state_dict`."""
        self._pass_index = int(state.get("pass_index", -1))
        self._perm_shard = int(state.get("perm_shard", -1))
        order = state.get("order")
        self._order = None if order is None else np.asarray(order, dtype=np.int64)
        perm = state.get("perm")
        self._perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        self._cum_batches = (
            None
            if self._order is None
            else np.cumsum(self.batches_per_shard[self._order])
        )
