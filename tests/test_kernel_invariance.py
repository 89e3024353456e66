"""One distance kernel: each estimate's bits depend only on its two rows.

:func:`repro.core.estimators.cross_sq_distances_from_parts` runs one
GEMV per query row over fixed tiles of stored rows, every call a whole
multiple of ``PAD_ROWS`` rows, so an estimate is the same number
whichever other rows share the call.  The property below compares every
payload (cross, top-k, radius, pairwise) with the payload of a
one-shard store holding the same rows, while it varies the shard
capacity, the append chunking, delete-then-compact, the batch
composition, the router split and the worker count.  int8 varies only
what leaves its decoded rows unchanged (batches and workers): its
per-shard scale depends on the layout.  A subprocess check repeats
layouts of wide rows at 1 and 2 BLAS threads, where OpenBLAS threads a
tile's GEMV.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceService,
    ExecutionPolicy,
    PairwiseQuery,
    RadiusQuery,
    RouterService,
    ShardedSketchStore,
    TopKQuery,
)

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_CONFIG = SketchConfig(input_dim=32, epsilon=8.0, output_dim=24, sparsity=4, seed=3)


def _release(n, seed):
    """``n`` labelled rows of scale 10: every estimate far above zero."""
    rng = np.random.default_rng(seed)
    labels = tuple(f"row-{i}" for i in range(n))
    x = 10.0 * rng.standard_normal((n, 32))
    return PrivateSketcher(_CONFIG).sketch_batch(x, noise_rng=seed, labels=labels)


def _store(spec, capacity, chunks):
    store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
    for chunk in chunks:
        store.add_batch(chunk)
    return store


def _answers(backend, queries, batches, k, radius_sq, pairs):
    """Every payload, as bytes: queries split into ``batches`` row counts."""
    cross, ranked, start = [], [], 0
    for size in batches:
        part = queries[start : start + size]
        start += size
        cross.append(backend.execute(CrossQuery(queries=part)).payload)
        ranked += backend.execute(TopKQuery(queries=part, k=k)).payload
    radius = RadiusQuery(query=queries.row(0), radius_sq=radius_sq)
    out = {
        "cross": np.concatenate(cross).tobytes(),
        "top_k": pickle.dumps(ranked),
        "radius": pickle.dumps(backend.execute(radius).payload),
    }
    if pairs is not None:
        out["pairwise"] = backend.execute(PairwiseQuery(indices=pairs)).payload.tobytes()
    return out


def _batches(data, m):
    sizes = []
    while sum(sizes) < m:
        size = data.draw(st.integers(1, 16), label="batch rows")
        sizes.append(min(size, m - sum(sizes)))
    return sizes


class TestOneShardEquivalence:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_payload_equals_the_one_shard_store(self, data):
        spec = data.draw(st.sampled_from(["f8", "f4", "f2", "int8"]), label="storage")
        n = data.draw(st.integers(2, 120), label="rows")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rows = _release(n, seed)
        queries = _release(data.draw(st.integers(1, 16), label="query rows"), seed + 1)
        policy = ExecutionPolicy(workers=data.draw(st.sampled_from([1, 4]), label="workers"))

        doomed = set()
        if spec == "int8":
            store = _store(spec, n + 4, [rows])
        else:
            capacity = data.draw(st.integers(1, n + 4), label="shard_capacity")
            cuts = data.draw(st.sets(st.integers(1, n - 1), max_size=4), label="chunks")
            bounds = [0, *sorted(cuts), n]
            store = _store(spec, capacity, [rows[a:b] for a, b in zip(bounds, bounds[1:])])
            doomed = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="deleted")
            if doomed:
                store.delete([rows.labels[i] for i in doomed])
        survivors = rows[np.setdiff1d(np.arange(n), sorted(doomed))]
        live = len(survivors)

        one = _store(spec, live + 4, [survivors])
        reference = DistanceService(one, ExecutionPolicy(workers=1))
        cross = reference.execute(CrossQuery(queries=queries)).payload
        radius_sq = data.draw(st.sampled_from(cross[0].tolist()), label="radius_sq")
        k = data.draw(st.integers(1, live + 1), label="k")
        indices = st.lists(st.integers(-live, live - 1), max_size=12)
        pairs = tuple(data.draw(indices, label="pairs"))
        want = _answers(reference, queries, [len(queries)], k, radius_sq, pairs)

        batches = _batches(data, len(queries))
        with DistanceService(store, policy) as service:
            assert _answers(service, queries, batches, k, radius_sq, pairs) == want
            if doomed:
                store.compact()
                assert _answers(service, queries, batches, k, radius_sq, pairs) == want

        # a pairwise entry is the cross estimate for the same two stored
        # rows, and the matrix is exactly symmetric
        if pairs:
            positions = [i % live for i in pairs]
            picked = one.to_batch()[positions]
            block = reference.execute(CrossQuery(queries=picked)).payload[:, positions]
            np.fill_diagonal(block, 0.0)
            pairwise = reference.execute(PairwiseQuery(indices=pairs)).payload
            assert pairwise.tobytes() == block.tobytes()
            np.testing.assert_array_equal(pairwise, pairwise.T)

        if spec != "int8":
            split = data.draw(st.integers(1, max(1, live - 1)), label="router split")
            parts = [survivors[:split], survivors[split:]]
            backends = [DistanceService(_store(spec, capacity, [p]), policy) for p in parts]
            del want["pairwise"]  # a router answers pairwise within one backend only
            with RouterService(backends, close_backends=True) as router:
                assert _answers(router, queries, batches, k, radius_sq, None) == want


# Wide rows (k = 256) put a 2,048-row tile above OpenBLAS's GEMV threading
# threshold, so at 2 BLAS threads each tile is split between two threads;
# shard capacities of 2,047 and 1,999 rows end on blocks that are not
# multiples of 8.  Prints, per storage spec, the digest of the one-shard
# payloads and the layouts whose payloads differ from them.
_WIDE_ROWS = r"""
import dataclasses, hashlib, json
import numpy as np
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery, DistanceService, ExecutionPolicy, PairwiseQuery, ShardedSketchStore,
    TopKQuery,
)
from repro.serving.execution import blas_threads

config = SketchConfig(input_dim=8, epsilon=8.0, output_dim=256, sparsity=4, seed=3)
template = PrivateSketcher(config).sketch_batch(np.zeros((1, 8)), noise_rng=0)
rng = np.random.default_rng(11)
def release(n):
    values = rng.standard_normal((n, 256))
    return dataclasses.replace(template, values=values, labels=tuple(range(n)))
rows, queries = release(2100), release(3)
pairs = tuple(range(0, 2100, 50))
out = {"blas_threads": blas_threads()}
for spec in ("f8", "f4"):
    digests = {}
    for capacity, chunk in ((2104, 2100), (2047, 2100), (1999, 700), (777, 2100)):
        store = ShardedSketchStore(shard_capacity=capacity, storage=spec)
        for start in range(0, 2100, chunk):
            store.add_batch(rows[start : start + chunk])
        service = DistanceService(store, ExecutionPolicy(workers=1))
        parts = [service.execute(CrossQuery(queries=queries)).payload.tobytes()]
        for i in range(3):
            single = CrossQuery(queries=queries[i : i + 1])
            parts.append(service.execute(single).payload.tobytes())
        ranked = service.execute(TopKQuery(queries=queries, k=10)).payload
        parts.append(repr(ranked).encode())
        parts.append(service.execute(PairwiseQuery(indices=pairs)).payload.tobytes())
        digests[capacity] = hashlib.sha256(b"|".join(parts)).hexdigest()
    one = digests[2104]
    out[spec] = {"digest": one, "differ": [c for c, d in digests.items() if d != one]}
print(json.dumps(out))
"""


def test_wide_rows_are_layout_invariant_at_1_and_2_blas_threads():
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": _SRC, "OPENBLAS_NUM_THREADS": threads}
        env.pop("REPRO_SERVING_BLAS_THREADS", None)
        done = subprocess.run(
            [sys.executable, "-c", _WIDE_ROWS],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        reports.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for report in reports:
        assert report["f8"]["differ"] == [] and report["f4"]["differ"] == [], report
    # and the bits do not depend on the thread count either
    for spec in ("f8", "f4"):
        assert reports[0][spec]["digest"] == reports[1][spec]["digest"]
