"""Streaming maintenance under a hard address-space cap.

The load-bearing claim of :mod:`repro.serving.maintenance` is that
``compact_store`` / ``merge_stores`` are disk-to-disk with peak memory
O(one block) — the store is never loaded *or mapped* in full
(``RLIMIT_AS`` counts a mapping at map time, so even a lazy mmap would
trip the cap).  Each test runs the rewrite in a subprocess that first
runs the same rewrite on a small store, then caps its own address space
at current-usage + a margin several times smaller than the store, then
streams a store through anyway.  The warm-up puts the one-time growth
(allocator arenas, first-call imports and caches) below the baseline,
so the margin measures what the rewrite holds per block, whether or
not the interpreter writes bytecode.

A control subprocess allocating one store-sized buffer under the same
cap must die of ``MemoryError`` — proving the cap is tight enough that
a materialising implementation could not pass these tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import ShardedSketchStore

_CONFIG = SketchConfig(input_dim=64, epsilon=8.0, output_dim=64, sparsity=4, seed=17)
_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: rows per store; at output_dim=64 float64 that is ~20 MB of codes
_ROWS = 40_000
#: rows per warm-up store: two blocks, so the warm-up spills one
_WARM_ROWS = 3_000
_STORE_BYTES = _ROWS * 64 * 8
#: address-space headroom the capped child gets above its import-time
#: usage — several times smaller than one store, far smaller than two
_MARGIN_BYTES = 8 * 1024 * 1024
_BLOCK_ROWS = 2048

_PRELUDE = textwrap.dedent(
    """
    import json, resource, sys
    import numpy as np
    from repro.serving.maintenance import compact_store, merge_stores

    def cap_address_space(margin, warm_up):
        warm_up()
        for line in open("/proc/self/status"):
            if line.startswith("VmSize:"):
                current = int(line.split()[1]) * 1024
                break
        # keep the hard limit: an unprivileged process cannot raise it,
        # and CI's low-memory leg already sets one with `ulimit -v`
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (current + margin, hard))
    """
)


def _run(child_source, *argv):
    return subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(child_source), *argv],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def store_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("lowmem")
    sk = PrivateSketcher(_CONFIG)
    rng = np.random.default_rng(0)
    for name, seed, rows in (
        ("a", 1, _ROWS),
        ("b", 2, _ROWS),
        ("warm-a", 3, _WARM_ROWS),
        ("warm-b", 4, _WARM_ROWS),
    ):
        store = ShardedSketchStore(shard_capacity=8192)
        # chunked appends keep the *builder* cheap too; positional
        # labels stay elided, as a big production store would have them
        for start in range(0, rows, 8192):
            n = min(8192, rows - start)
            store.add_batch(
                sk.sketch_batch(rng.standard_normal((n, 64)), noise_rng=seed)
            )
        store.save(base / name)
    return base


class TestTheCapHasTeeth:
    def test_one_store_sized_allocation_dies(self, store_dirs):
        proc = _run(
            """
            cap_address_space(int(sys.argv[1]), lambda: None)
            try:
                buffer = np.empty(int(sys.argv[2]), dtype=np.uint8)
                buffer[::4096] = 1
            except MemoryError:
                sys.exit(42)
            sys.exit(0)
            """,
            str(_MARGIN_BYTES),
            str(_STORE_BYTES),
        )
        assert proc.returncode == 42, proc.stderr


class TestCappedCompaction:
    def test_compact_re_encodes_a_store_bigger_than_the_cap(self, store_dirs):
        proc = _run(
            """
            cap_address_space(int(sys.argv[1]), lambda: compact_store(
                sys.argv[4], storage="f4", block_rows=int(sys.argv[3])
            ))
            summary = compact_store(
                sys.argv[2], storage="f4", block_rows=int(sys.argv[3])
            )
            print(json.dumps(summary))
            """,
            str(_MARGIN_BYTES),
            str(store_dirs / "a"),
            str(_BLOCK_ROWS),
            str(store_dirs / "warm-a"),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["rows"] == _ROWS
        assert summary["generation"] == 1
        assert summary["storage"] == "f4"
        loaded = ShardedSketchStore.load(store_dirs / "a", mmap=True)
        assert len(loaded) == _ROWS and loaded.storage.name == "f4"

    def test_merge_fuses_two_stores_bigger_than_the_cap(self, store_dirs):
        # runs after the compact test re-encoded "a" to f4, so an
        # explicit storage= re-unifies the specs — exercising the
        # decode/re-encode streaming path for one source and the
        # passthrough path for neither
        proc = _run(
            """
            cap_address_space(int(sys.argv[1]), lambda: merge_stores(
                sys.argv[6], sys.argv[7], dest=sys.argv[8],
                storage="f4", block_rows=int(sys.argv[5]),
            ))
            summary = merge_stores(
                sys.argv[2], sys.argv[3], dest=sys.argv[4],
                storage="f4", block_rows=int(sys.argv[5]),
            )
            print(json.dumps(summary))
            """,
            str(_MARGIN_BYTES),
            str(store_dirs / "a"),
            str(store_dirs / "b"),
            str(store_dirs / "merged"),
            str(_BLOCK_ROWS),
            str(store_dirs / "warm-a"),
            str(store_dirs / "warm-b"),
            str(store_dirs / "warm-merged"),
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert summary["rows"] == 2 * _ROWS
        merged = ShardedSketchStore.load(store_dirs / "merged", mmap=True)
        assert len(merged) == 2 * _ROWS
