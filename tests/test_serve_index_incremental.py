"""The index's incrementally maintained read state equals a full rebuild.

:class:`EmbeddingIndex` keeps its latest-row map and per-shard live rows up
to date through every ``add``/``remove``/seal/``compact`` instead of
re-deriving them by a walk over every row per generation.  The references
below are that walk and the search that consumed its output, kept here
verbatim so every step of a random operation sequence can be checked
against them: search metadata, the latest-row map, ``len``, ``keys()``,
``get()``, membership and exact top-k must all agree.  A snapshot pinned
before a supersession or removal must keep answering with the old row.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import EmbeddingIndex, exact_topk
from repro.serve.index import MANIFEST_NAME
from repro.serve.search import SearchHit

DIM = 6
KEYS = [f"k{i}" for i in range(7)]
KINDS = ["cone", "rtl", "layout"]


# ----------------------------------------------------------------------
# References: the from-scratch walk and the search over its output
# ----------------------------------------------------------------------
def _segments(index: EmbeddingIndex) -> List[Tuple[List[str], List[str]]]:
    rows = [(list(shard.keys), list(shard.kinds)) for shard in index._shards]
    if index._pending_keys:
        rows.append((list(index._pending_keys), list(index._pending_kinds)))
    return rows


def _reference_rows(index: EmbeddingIndex):
    """``(segment, row, key, kind)`` of every row not tombstoned, in order."""
    for segment, (keys, kinds) in enumerate(_segments(index)):
        for row, (key, kind) in enumerate(zip(keys, kinds)):
            if not index._is_dead(key, kind):
                yield segment, row, key, kind


def _reference_latest(index: EmbeddingIndex) -> Dict[Tuple[str, str], Tuple[int, int]]:
    latest: Dict[Tuple[str, str], Tuple[int, int]] = {}
    for segment, row, key, kind in _reference_rows(index):
        latest[(key, kind)] = (segment, row)
    return latest


def _reference_metadata(index: EmbeddingIndex):
    latest = _reference_latest(index)
    metadata = []
    for segment, (keys, kinds) in enumerate(_segments(index)):
        live = np.fromiter(
            (r for r, pair in enumerate(zip(keys, kinds)) if latest.get(pair) == (segment, r)),
            dtype=np.int64,
        )
        metadata.append((list(keys), np.asarray(list(kinds), dtype=object), live))
    return metadata


def _reference_keys(index: EmbeddingIndex, kind: Optional[str] = None) -> List[str]:
    seen: Dict[str, None] = {}
    for _, _, key, row_kind in _reference_rows(index):
        if kind is None or row_kind == kind:
            seen.setdefault(key, None)
    return list(seen)


def _reference_get(index: EmbeddingIndex, key: str, kind: Optional[str] = None):
    segments = list(index.iter_segments())
    for segment in range(len(segments) - 1, -1, -1):
        keys, kinds, matrix, _ = segments[segment]
        for r in range(len(keys) - 1, -1, -1):
            if keys[r] == key and (kind is None or kinds[r] == kind) and not index._is_dead(
                key, kinds[r]
            ):
                return np.asarray(matrix[r], dtype=np.float64)
    return None


def _reference_topk(index: EmbeddingIndex, queries: np.ndarray, k: int, kind=None):
    """Exact top-k as the search ran over the from-scratch metadata."""
    queries = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
    candidates: List[list] = [[] for _ in range(len(queries))]
    order = 0
    for (keys, kinds, matrix, norms), (_, kinds_array, live_rows) in zip(
        index.iter_segments(), _reference_metadata(index)
    ):
        rows = live_rows
        if kind is not None and len(rows):
            rows = rows[kinds_array[rows] == kind]
        if not len(rows):
            order += len(keys)
            continue
        block = np.asarray(matrix[rows], dtype=np.float64)
        sims = queries @ (block / norms[rows][:, None]).T
        take = min(k, len(rows))
        shortlist = np.argpartition(-sims, take - 1, axis=1)[:, :take]
        for q in range(sims.shape[0]):
            for c in shortlist[q]:
                row = int(rows[int(c)])
                candidates[q].append((float(sims[q, c]), order + row, keys[row], kinds[row]))
        order += len(keys)
    results = []
    for pool in candidates:
        pool.sort(key=lambda item: (-item[0], item[1]))
        results.append([SearchHit(key=key, kind=kd, score=s) for s, _, key, kd in pool[:k]])
    return results


def _assert_matches_rebuild(index: EmbeddingIndex, rng: np.random.Generator) -> None:
    expected = _reference_metadata(index)
    actual = index.search_metadata()
    assert len(actual) == len(expected)
    for (keys, kinds_array, live), (ref_keys, ref_kinds, ref_live) in zip(actual, expected):
        assert list(keys) == ref_keys
        assert list(kinds_array) == list(ref_kinds)
        assert live.dtype == np.int64
        np.testing.assert_array_equal(live, ref_live)
    latest = _reference_latest(index)
    assert index.live_row_map() == latest
    assert len(index) == len(latest)
    assert index.keys() == _reference_keys(index)
    for kind in KINDS:
        assert index.keys(kind=kind) == _reference_keys(index, kind)
    for key in KEYS:
        assert (key in index) == any(pair[0] == key for pair in latest)
        for kind in [None] + KINDS:
            got, want = index.get(key, kind=kind), _reference_get(index, key, kind)
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
    queries = rng.normal(size=(3, DIM))
    for kind in (None, "cone"):
        assert exact_topk(index, queries, k=4, kind=kind) == _reference_topk(
            index, queries, k=4, kind=kind
        )


# ----------------------------------------------------------------------
# The property test
# ----------------------------------------------------------------------
_key = st.sampled_from(KEYS)
_kind = st.sampled_from(KINDS)
_operation = st.one_of(
    st.tuples(st.just("add"), st.lists(st.tuples(_key, _kind), min_size=1, max_size=5)),
    st.tuples(st.just("remove"), st.lists(_key, min_size=1, max_size=3),
              st.one_of(st.none(), _kind)),
    st.tuples(st.just("wildcard"), _key),
    st.tuples(st.just("flush")),
    st.tuples(st.just("compact")),
)


def _apply(index: EmbeddingIndex, operation, rng: np.random.Generator) -> EmbeddingIndex:
    name = operation[0]
    if name == "add":
        pairs = operation[1]
        index.add([key for key, _ in pairs], rng.normal(size=(len(pairs), DIM)),
                  kinds=[kind for _, kind in pairs])
    elif name == "remove":
        index.remove(operation[1], kind=operation[2])
    elif name == "flush":
        index.flush()
    elif name == "compact":
        index.compact()
    else:
        # A legacy key-only tombstone (a wildcard over every kind): written
        # into the manifest and picked up by a reopen, whose first read
        # rebuilds the state; later adds of the key revive one kind each.
        index.save()
        path = Path(index.directory) / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["tombstones"].append(operation[1])
        path.write_text(json.dumps(manifest))
        index = EmbeddingIndex.open(index.directory)
    return index


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(_operation, min_size=1, max_size=14),
    shard_size=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_incremental_state_equals_rebuild_after_every_step(operations, shard_size, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as directory:
        index = EmbeddingIndex.create(directory, dim=DIM, shard_size=shard_size)
        for operation in operations:
            index = _apply(index, operation, rng)
            _assert_matches_rebuild(index, rng)


# ----------------------------------------------------------------------
# Pinned snapshots keep their generation's rows
# ----------------------------------------------------------------------
def _top(snapshot, vector: np.ndarray, kind: str = "cone") -> List[SearchHit]:
    return exact_topk(snapshot, vector[None, :], k=2, kind=kind)[0]


def test_pinned_snapshot_keeps_superseded_and_removed_rows(tmp_path):
    rng = np.random.default_rng(3)
    old, other, new = rng.normal(size=(3, DIM))
    index = EmbeddingIndex.create(tmp_path / "idx", dim=DIM, shard_size=2)
    index.add(["a", "b"], np.stack([old, other]), kinds="cone")  # sealed shard 0
    index.add(["c"], other[None, :] * -1.0, kinds="cone")  # pending tail
    pinned = index.snapshot()

    index.remove(["c"])  # drops the pending row
    index.add(["a"], new[None, :], kinds="cone")  # supersedes a sealed row
    index.remove(["b"])  # tombstones a sealed row
    assert index.get("a") is not None and np.allclose(index.get("a"), new)
    assert "b" not in index and "c" not in index

    # The pinned view still answers with the rows of its own generation.
    assert _top(pinned, old)[0].key == "a"
    assert _top(pinned, old)[0].score > 1 - 1e-6
    assert _top(pinned, other)[0].key == "b"
    assert _top(pinned, -other)[0].key == "c"
    live = {(keys[int(r)]) for keys, _, rows in pinned.search_metadata() for r in rows}
    assert live == {"a", "b", "c"}

    # A fresh snapshot sees only the new state.
    fresh = index.snapshot()
    hits = _top(fresh, old)
    assert [hit.key for hit in hits] == ["a"] and hits[0].score < 1 - 1e-6
    assert {hit.key for hit in _top(fresh, other)} <= {"a"}
