"""Estimators over released sketches (the analyst side of the protocol).

All estimators are pure functions of :class:`PrivateSketch` /
:class:`SketchBatch` objects — they need no access to the sketcher, the
transform or the data, which is the whole point of the distributed
setting: anyone can estimate from published sketches.

* squared distance: ``||u - v||^2 - 2 * m * E[eta^2]`` where ``m`` is
  the number of noisy coordinates (``k`` for output perturbation, ``d``
  for input perturbation) — unbiased by Lemma 3 / Lemma 8;
* squared norm: ``||u||^2 - m * E[eta^2]`` — unbiased by the same
  argument with a single noise vector;
* inner product: ``<u, v>`` — already unbiased because the transform
  satisfies ``E[S^T S] = I`` and the noise is independent and zero-mean.

The matrix-shaped variants (:func:`pairwise_sq_distances`,
:func:`cross_sq_distances`, :func:`sq_norms`) apply the same debiasing
entry-wise.  Pairwise and cross distances share one kernel,
:func:`cross_sq_distances_from_parts`, whose inner products run as one
BLAS GEMV per row over fixed tiles of the other side, so each entry's
bits depend only on its two rows: a pair estimates the same number in
any batch, shard layout or order.  They accept either a
:class:`~repro.core.sketch.SketchBatch` or a single sketch (treated as
a one-row batch).
"""

from __future__ import annotations

import math

import numpy as np

#: Stored rows per tile of the distance kernel: one GEMV streams a tile
#: against one query row, tiles outside, query rows inside.
TILE_ROWS = 2048

#: Every GEMV covers a whole multiple of this many stored rows, the last
#: partial block zero-padded.  OpenBLAS's GEMV kernels round the last
#: ``rows mod 4`` outputs of a call (of each thread's share, when a wide
#: call threads) differently from the rest; a multiple of 16 keeps every
#: share whole at up to four BLAS threads.
PAD_ROWS = 16


#: Metadata fields that the estimators consume; two releases claiming
#: the same configuration digest must agree on every one of them, or
#: the debias corrections would silently mix constants from different
#: mechanisms.
_ESTIMATION_METADATA = (
    "input_dim",
    "output_dim",
    "perturbation",
    "noise_spec",
    "noise_second_moment",
    "guarantee",
)


def check_compatible(a, b) -> None:
    """Ensure two releases (sketches or batches) share a public config.

    Compares the sketch dimension — the *last* axis of ``values`` — so a
    1-D sketch and a 2-D batch (or two batches with different row
    counts) are judged on the same quantity.  Beyond the digest, the
    estimator-relevant metadata must also agree: a release whose digest
    matches but whose noise metadata differs (a tampered or corrupted
    header — legitimate sketchers derive both from the same config) is
    rejected here, so every construction path that funnels releases
    together — stores, services, estimators — fails fast instead of
    mixing debias constants.
    """
    if a.config_digest != b.config_digest:
        raise ValueError(
            "sketches come from different configurations "
            f"({a.config_digest} vs {b.config_digest}); estimates would be meaningless"
        )
    if a.values.shape[-1] != b.values.shape[-1]:
        raise ValueError(
            f"sketch dimensions differ: {a.values.shape[-1]} vs {b.values.shape[-1]}"
        )
    for field in _ESTIMATION_METADATA:
        if getattr(a, field) != getattr(b, field):
            raise ValueError(
                f"releases claim the same configuration ({a.config_digest}) but "
                f"disagree on {field} ({getattr(a, field)!r} vs "
                f"{getattr(b, field)!r}); the metadata was tampered with or "
                "corrupted, and estimates would be meaningless"
            )


def noise_coordinates(sketch) -> int:
    """Number of coordinates carrying noise: ``d`` for input perturbation."""
    return sketch.input_dim if sketch.perturbation == "input" else sketch.output_dim


def sq_distance_correction(release) -> float:
    """The distance estimator's debias term ``2 m E[eta^2]`` (Lemma 3).

    ``m`` is :func:`noise_coordinates`; the single owner of this
    constant, shared by the scalar/matrix estimators and the serving
    layer.
    """
    return 2.0 * noise_coordinates(release) * release.noise_second_moment


def sq_norm_correction(release) -> float:
    """The squared-norm estimator's debias term ``m E[eta^2]``.

    Half of :func:`sq_distance_correction` (one noise vector instead of
    two); the single owner shared by :func:`estimate_sq_norm`,
    :func:`sq_norms` and the serving layer's norms query.
    """
    return noise_coordinates(release) * release.noise_second_moment


def clamp_sq_estimates(values):
    """Clamp debiased squared estimates at ``0.0`` — the single owner.

    The unbiased correction of :func:`sq_distance_correction` can
    overshoot at tiny true distances and produce a *negative* squared
    estimate.  Whenever a negative estimate must be presented as a
    distance-like quantity, it clamps to zero **here and only here** —
    :func:`estimate_distance` and the serving query plane's top-k /
    radius payloads all route through this function, so the policy is
    decided exactly once instead of per call site.

    The raw unbiased values stay available where unbiasedness matters:
    :func:`estimate_sq_distance` and the matrix estimators
    (:func:`pairwise_sq_distances`, :func:`cross_sq_distances`,
    :func:`sq_norms`) never clamp.  Clamping happens *after* ordering
    decisions — rankings and radius membership are computed on the raw
    values, so the constant-shift ordering argument is unaffected.

    Accepts a scalar or an array; returns the same shape.
    """
    if np.isscalar(values):
        return max(float(values), 0.0)
    return np.maximum(values, 0.0)


def estimate_sq_distance(a, b) -> float:
    """Unbiased squared-Euclidean-distance estimator (Lemma 3 / Lemma 8)."""
    check_compatible(a, b)
    diff = a.values - b.values
    return float(np.dot(diff, diff)) - sq_distance_correction(a)


def estimate_distance(a, b) -> float:
    """Distance estimate ``sqrt(clamp(estimate))``.

    The square root introduces (vanishing) bias; use
    :func:`estimate_sq_distance` when unbiasedness matters.  Negative
    debiased estimates clamp through :func:`clamp_sq_estimates`.
    """
    return math.sqrt(clamp_sq_estimates(estimate_sq_distance(a, b)))


def estimate_sq_norm(sketch) -> float:
    """Unbiased squared-norm estimator from a single sketch."""
    values = sketch.values
    return float(np.dot(values, values)) - sq_norm_correction(sketch)


def estimate_inner_product(a, b) -> float:
    """Unbiased inner-product estimator ``<u, v>``.

    Unbiased without any correction: the two sketches carry independent
    noise, so cross terms vanish in expectation.
    """
    check_compatible(a, b)
    return float(np.dot(a.values, b.values))


# -- matrix-shaped estimators -------------------------------------------------


def _as_rows(sketch_or_batch) -> np.ndarray:
    """View a release's payload as an ``(n, k)`` matrix (1-row for sketches)."""
    values = np.asarray(sketch_or_batch.values, dtype=np.float64)
    return values[np.newaxis, :] if values.ndim == 1 else values


def sq_norms(batch) -> np.ndarray:
    """Unbiased squared-norm estimates for every row of a batch."""
    values = _as_rows(batch)
    return np.einsum("ij,ij->i", values, values) - sq_norm_correction(batch)


def pairwise_sq_distances(batch) -> np.ndarray:
    """All-pairs unbiased squared-distance estimates within one batch.

    Entry ``(i, j)`` is debiased exactly like
    :func:`estimate_sq_distance` on rows ``i`` and ``j``; the diagonal
    is zero by convention (a row paired with itself carries no
    independent noise, so the off-diagonal correction would not apply).
    Entries can be negative — the unbiased correction may overshoot at
    tiny distances.
    """
    values = _as_rows(batch)
    return pairwise_sq_distances_from_values(values, sq_distance_correction(batch))


def pairwise_sq_distances_from_values(values: np.ndarray, correction: float) -> np.ndarray:
    """The pairwise kernel over bare ``(n, k)`` rows.

    :func:`cross_sq_distances_from_parts` with ``values`` on both sides
    and a zero diagonal, the debias term ``correction`` supplied by the
    caller, so a serving layer that gathers rows out of its shards pays
    for no :class:`~repro.core.sketch.SketchBatch` around them.  Float32
    rows take the kernel's float32 path.  Entry ``(i, j)`` has the bits
    of the cross entry for the same two rows, whatever other rows share
    the call, and the matrix is symmetric.  No validation is performed;
    callers are responsible for compatibility checks.
    """
    wide = np.asarray(values, dtype=np.float64)
    sq = np.einsum("ij,ij->i", wide, wide)
    out = cross_sq_distances_from_parts(values, sq, values, sq, correction)
    np.fill_diagonal(out, 0.0)
    return out


def _inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` as one GEMV per row of ``a`` per tile of ``b``.

    The whole tiles go through one ``matmul`` call, whose C loop runs
    their GEMVs tile by tile with the rows of ``a`` inside (``order="C"``
    over the tile-major view of the output), so the GIL is released
    once per call, not once per GEMV.  Only the last ``len(b) mod
    PAD_ROWS`` rows are copied, into a zero block.
    """
    n, (m, k) = a.shape[0], b.shape
    out = np.empty((n, m), dtype=b.dtype)
    whole = m - m % PAD_ROWS
    full = whole - whole % TILE_ROWS
    column = a[:, :, np.newaxis]
    if full:
        count = full // TILE_ROWS
        tiles = b[:full].reshape(count, 1, TILE_ROWS, k)
        dest = out[:, :full].reshape(n, count, TILE_ROWS).transpose(1, 0, 2)
        np.matmul(tiles, column, out=dest[..., np.newaxis], order="C")
    if full < whole:
        np.matmul(b[full:whole], column, out=out[:, full:whole, np.newaxis])
    if whole < m:
        tail = np.zeros((PAD_ROWS, k), dtype=b.dtype)
        tail[: m - whole] = b[whole:]
        out[:, whole:] = np.matmul(tail, column)[:, : m - whole, 0]
    return out


def cross_sq_distances_from_parts(
    a: np.ndarray, sq_a: np.ndarray, b: np.ndarray, sq_b: np.ndarray, correction: float
) -> np.ndarray:
    """The distance kernel, with caller-supplied squared norms.

    Computes ``(sq_a[i] + sq_b[j]) - 2 <a_i, b_j> - correction`` —
    exactly the arithmetic of :func:`cross_sq_distances`, in that order
    — but takes the norm terms precomputed, so a serving layer that
    caches ``sq_b`` per shard pays only for the inner products per
    query.  No validation is performed; callers are responsible for
    compatibility checks.

    **One GEMV per row per tile.**  The inner products loop over tiles
    of :data:`TILE_ROWS` rows of ``b`` and, inside each, run one GEMV
    per row of ``a``; every GEMV covers a whole multiple of
    :data:`PAD_ROWS` rows, the last partial block zero-padded.  So each
    product, and each estimate, has the bits it would have with its two
    rows alone in the call: the same in any shard layout, batch, thread
    or order.  The epilogue then runs in place on the whole block.

    **Mixed precision.**  When ``b`` is float32 — a low-precision shard
    served by the quantised store — the rows of ``a`` are cast to
    float32 once, the products come from sgemv (the big operand streams
    at half the memory traffic), and they are cast to float64 before
    anything else touches them, while the norm sums and the debias
    correction still accumulate in float64 from the caller's float64
    ``sq_a``/``sq_b``.  The result is always float64.  The extra
    rounding this admits is part of the documented quantisation
    envelope (:mod:`repro.theory.quantisation`).
    """
    dtype = np.float32 if b.dtype == np.float32 else np.float64
    products = _inner_products(
        np.ascontiguousarray(a, dtype=dtype), np.ascontiguousarray(b, dtype=dtype)
    )
    if dtype is np.float32:
        doubled = np.multiply(products, 2.0, dtype=np.float64)
    else:
        doubled = np.multiply(products, 2.0, out=products)
    out = np.add(sq_a[:, np.newaxis], sq_b)
    out -= doubled
    out -= correction
    return out


def cross_sq_distances(batch_a, batch_b) -> np.ndarray:
    """Unbiased squared-distance estimates between two batches.

    Entry ``(i, j)`` estimates the distance between the vector behind
    row ``i`` of ``batch_a`` and row ``j`` of ``batch_b``.  Every entry
    is corrected (the two batches carry independent noise draws) — so
    ``cross_sq_distances(A, A)`` matches ``pairwise_sq_distances(A)``
    only off the diagonal, where the independence assumption holds.
    """
    check_compatible(batch_a, batch_b)
    a, b = _as_rows(batch_a), _as_rows(batch_b)
    correction = sq_distance_correction(batch_a)
    sq_a = np.einsum("ij,ij->i", a, a)
    sq_b = np.einsum("ij,ij->i", b, b)
    return cross_sq_distances_from_parts(a, sq_a, b, sq_b, correction)


def estimate_distance_matrix(sketches) -> np.ndarray:
    """All-pairs squared-distance estimates for sketches or a batch.

    Entry ``(i, j)`` is the unbiased estimate between sketches ``i`` and
    ``j``; the diagonal is zero by convention.  Accepts a
    :class:`~repro.core.sketch.SketchBatch` or any iterable of
    compatible :class:`~repro.core.sketch.PrivateSketch` objects.
    """
    values = getattr(sketches, "values", None)
    if values is not None and np.ndim(values) == 2:  # a SketchBatch (duck-typed)
        return pairwise_sq_distances(sketches)
    # a single PrivateSketch falls through and fails below like any
    # other non-iterable — a 1x1 zero "matrix" would hide the mistake
    sketches = list(sketches)
    if not sketches:
        return np.zeros((0, 0))
    first = sketches[0]
    for other in sketches[1:]:
        check_compatible(first, other)
    values = np.stack([np.asarray(s.values, dtype=np.float64) for s in sketches])
    return pairwise_sq_distances_from_values(values, sq_distance_correction(first))
