"""Execution policies for the shard-parallel query plane.

A :class:`~repro.serving.service.DistanceService` turns every query
into independent per-shard distance blocks; :class:`ExecutionPolicy`
decides how those blocks are scheduled.  ``workers=1`` (the default)
streams them serially; ``workers=N`` dispatches them onto a thread pool
of ``N`` workers.  Threads — not processes — are the right tool here:
each block is dominated by one BLAS matrix multiplication, which
releases the GIL, so shard blocks genuinely overlap while the Python
merge stays trivially small.

Results are **bit-identical** across policies: every shard block is the
same deterministic arithmetic whatever thread runs it, and the merge
ranks candidates by estimate, then global position, regardless of
completion order.

**BLAS threads compose multiplicatively with concurrency.**  Most BLAS
builds default to one internal thread per core.  A server already runs
one query per connection thread, and a pool fans shard blocks across
``N`` workers; either way each concurrent multiplication that threads
across every core adds ``cores`` compute threads, and the
oversubscribed kernel threads spend their time context-switching
instead of multiplying.  :func:`pin_blas_threads` pins the BLAS
libraries to one thread each, so concurrent requests and the pool are
the only parallelism levers — the threadpoolctl recipe, via
threadpoolctl itself when installed, else a ctypes probe of the loaded
BLAS plus the standard ``*_NUM_THREADS`` environment guard for
libraries yet to load.  The CLI server calls it at start-up in every
process (:mod:`repro.serving.server`), and a service calls it when it
first builds its pool.  Neither an import nor a ``SketchQueryServer``
calls it: BLAS threading is process-wide, so a program that embeds the
server decides its own.  :func:`blas_threads` reads the count in effect
back from the libraries; ``/healthz`` reports it.  Operators who want a
different split (say 2 BLAS threads under a 2-worker pool on a 16-core
box) set ``REPRO_SERVING_BLAS_THREADS``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass


def run_ordered(fn, items: list, *, executor: ThreadPoolExecutor | None = None) -> list:
    """Apply ``fn`` to every item, results in input order.

    The one ordered-reduction primitive of the serving tier: the local
    :class:`~repro.serving.service.DistanceService` maps it over shard
    views, and the :class:`~repro.serving.router.RouterService` maps it
    over network backends — same contract both times.  With no
    ``executor`` (or fewer than two items) it streams on the calling
    thread; otherwise items run concurrently on the pool while results
    still come back in input order, so downstream merges are
    schedule-independent.  An exception from any item propagates to the
    caller unchanged.
    """
    if executor is None or len(items) <= 1:
        return [fn(item) for item in items]
    return list(executor.map(fn, items))

_WORKERS_ENV = "REPRO_SERVING_WORKERS"
_BLAS_THREADS_ENV = "REPRO_SERVING_BLAS_THREADS"

#: The thread-count knobs every mainstream BLAS/OpenMP build reads at
#: library load time — the environment half of the guard, covering any
#: compute library imported after the pin.
_BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: ``set_num_threads``-style entry points of the BLAS builds numpy links
#: against, for the ctypes half of the guard (the env vars cannot reach
#: a library that already read them at load time).
_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    # the symbol names in the OpenBLAS builds vendored inside numpy/scipy
    # manylinux wheels, which prefix everything with scipy_
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "MKL_Set_Num_Threads",
    "bli_thread_set_num_threads",
)

#: The matching getters, which :func:`blas_threads` reads back.
_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "MKL_Get_Max_Threads",
    "bli_thread_get_num_threads",
)

_pin_lock = threading.Lock()
_pinned: int | None = None
_threadpoolctl_limits = None  # keeps a threadpoolctl pin alive process-wide


def _blas_threads_from_env() -> int | None:
    raw = os.environ.get(_BLAS_THREADS_ENV, "").strip()
    if not raw:
        return None
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(
            f"{_BLAS_THREADS_ENV}={raw!r} is not a valid BLAS thread count: "
            "expected a positive integer such as 1 (unset it for the "
            "default: 1 BLAS thread per pinned process)"
        ) from None
    if threads < 1:
        raise ValueError(
            f"{_BLAS_THREADS_ENV}={raw!r} is not a valid BLAS thread count: "
            "must be >= 1 (unset it for the default)"
        )
    return threads


def _loaded_blas_libraries():
    """Handles for BLAS shared objects already mapped into this process.

    A minimal stand-in for threadpoolctl's prefix scan: read the mapped
    files from ``/proc/self/maps`` and keep the ones that look like a
    BLAS build.  Platforms without /proc simply yield nothing — the
    environment guard still covers subprocesses and later imports.
    """
    try:
        with open("/proc/self/maps") as maps:
            mapped = {
                line.split(None, 5)[-1].strip()
                for line in maps
                if line.rstrip().endswith(".so") or ".so." in line
            }
    except OSError:
        return
    markers = ("openblas", "libblas", "libcblas", "mkl_rt", "libblis")
    for path in sorted(mapped):
        name = os.path.basename(path).lower()
        if any(marker in name for marker in markers):
            try:
                yield ctypes.CDLL(path)
            except OSError:
                continue


@functools.cache
def _threadpoolctl():
    """The threadpoolctl module when installed, else None."""
    try:
        import threadpoolctl
    except ImportError:
        return None
    return threadpoolctl


@functools.cache
def _blas_getters() -> tuple:
    """The thread-count getters of every BLAS already in the process.

    Resolved once: the scan costs about a millisecond and ``/healthz``
    reads the count on every probe, while a getter call costs about a
    microsecond.  numpy and scipy map their BLAS when imported, so every
    build this package uses is in place before the first read.
    """
    getters = []
    for lib in _loaded_blas_libraries():
        for symbol in _BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = (), ctypes.c_int
                getters.append(getter)
    return tuple(getters)


def blas_threads() -> int | None:
    """The BLAS thread count in effect, read back from the libraries.

    The largest count any loaded BLAS reports (through threadpoolctl
    when installed, else the ctypes probe), or None when no library
    exposes a getter.  Read back rather than remembered, so an operator
    sees a pin that did not take.
    """
    threadpoolctl = _threadpoolctl()
    if threadpoolctl is not None:
        counts = [
            info["num_threads"]
            for info in threadpoolctl.threadpool_info()
            if info["user_api"] == "blas"
        ]
    else:
        counts = [getter() for getter in _blas_getters()]
    return max(counts, default=None)


def _pin_loaded_blas(threads: int) -> None:
    """Best-effort runtime pin of every BLAS already in the process."""
    global _threadpoolctl_limits
    threadpoolctl = _threadpoolctl()
    if threadpoolctl is not None:
        # holding the controller applies the limit for the life of the
        # process (releasing it would restore the oversubscribed default)
        _threadpoolctl_limits = threadpoolctl.threadpool_limits(
            limits=threads, user_api="blas"
        )
        return
    for lib in _loaded_blas_libraries():
        for symbol in _BLAS_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                try:
                    setter(threads)
                except (ctypes.ArgumentError, OSError):  # pragma: no cover
                    continue


def pin_blas_threads(threads: int | None = None) -> int:
    """Pin BLAS-internal threading so concurrency comes from requests and the pool.

    Called at start-up by every CLI server process
    (:func:`repro.serving.server.main` and each ``--processes`` worker),
    and by :class:`~repro.serving.service.DistanceService` when a
    parallel policy first builds its pool.  A program that runs a
    :class:`~repro.serving.server.SketchQueryServer` in its own process
    calls it at start-up, as the CLI does.

    ``threads=None`` means the default of 1 BLAS thread;
    ``REPRO_SERVING_BLAS_THREADS`` overrides both the argument and the
    default (and is validated loudly, like every other serving knob).
    That variable is the one knob: the runtime half sets every BLAS
    already loaded to the pinned count whatever ``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS`` and the like say, so a count inherited from a
    launcher cannot quietly bring the oversubscription back.  The
    environment half, for libraries loaded later and for child
    processes, only fills those variables where they are unset — unless
    ``REPRO_SERVING_BLAS_THREADS`` is set, which overwrites them.
    Returns the pinned count; repeat calls are no-ops returning the
    first pin (one process, one BLAS configuration).
    """
    global _pinned
    override = _blas_threads_from_env()
    requested = override if override is not None else (threads or 1)
    with _pin_lock:
        if _pinned is not None:
            return _pinned
        value = str(requested)
        for var in _BLAS_ENV_VARS:
            if override is not None:
                os.environ[var] = value
            else:
                os.environ.setdefault(var, value)
        _pin_loaded_blas(requested)
        _pinned = requested
        return requested


def _workers_from_env() -> int:
    raw = os.environ.get(_WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(
            f"{_WORKERS_ENV}={raw!r} is not a valid worker count: expected a "
            "positive integer such as 4 (unset it for serial execution)"
        ) from None
    if workers < 1:
        raise ValueError(
            f"{_WORKERS_ENV}={raw!r} is not a valid worker count: must be "
            ">= 1 (unset it for serial execution)"
        )
    return workers


@dataclass(frozen=True, repr=False)
class ExecutionPolicy:
    """How a :class:`DistanceService` schedules per-shard query work.

    Parameters
    ----------
    workers:
        ``1`` streams shards serially on the calling thread; ``N > 1``
        fans shard blocks out across a pool of ``N`` threads.

    The policy decides scheduling only.  Which shards a top-k or radius
    query skips is decided by the exact shard bounds of
    :mod:`repro.serving.service`, which always run, so answers never
    depend on the policy.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def __repr__(self) -> str:
        mode = "serial" if self.workers == 1 else f"workers={self.workers}"
        return f"ExecutionPolicy({mode})"

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """The default policy, overridable via the environment.

        ``REPRO_SERVING_WORKERS`` sets the worker count — CI uses it to
        run the whole serving test suite under a 4-worker pool without
        touching the tests.  A malformed value raises ``ValueError``
        naming the variable, the offending value and the accepted form
        — a typo in a deployment manifest should fail loudly at service
        construction, not silently fall back.
        """
        return cls(workers=_workers_from_env())
