"""The linear-transform abstraction every JL projection implements.

A transform is a random ``k x d`` matrix ``S`` with the Length Preserving
Property (Definition 4): ``E[||Sx||^2] = ||x||^2``.  The privacy analysis
only needs two more things from it: its exact ``l_p``-sensitivities
(Definition 3: the maximum column ``p``-norm) and, for streaming, the
embedding of a single coordinate.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import as_batch, check_finite, check_index, coerce_float_matrix


@functools.cache
def _load_scipy_sparse():
    """``scipy.sparse``, imported by the first :class:`CooProjector`.

    ``None`` without scipy: CooProjector falls back to a bincount
    scatter.  Deferred so that processes which never project (servers,
    routers, clients) do not load it.
    """
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return sparse


#: Max contribution-buffer entries per chunk in the bincount fallback.
_SCATTER_BUFFER = 1 << 22

#: Input bytes per row tile in CooProjector's scipy path: a tile and its
#: transposed copy stay in L2 cache.  On a 2500 x 1024 batch (2-core Xeon,
#: 2 MiB L2 per core) 256-512 KiB ran fastest of 64 KiB to 1 MiB.
_TILE_BYTES = 256 * 1024

#: Fewest rows per tile; it binds above 2048 input columns.  scipy runs
#: one loop over the tile's rows per matrix entry, and at 2-4 rows that
#: loop's overhead set the time: d = 8192 and 16384 batches ran 2.4-2.5x
#: slower than with 16-row tiles on the machine above.
_MIN_TILE_ROWS = 16


class LinearTransform(ABC):
    """A random linear map ``S : R^d -> R^k`` satisfying LPP.

    Subclasses must be deterministic functions of their ``seed`` so that
    distributed parties sharing the seed construct identical transforms.
    """

    #: Short identifier used by the factory and in experiment tables.
    name: str = "abstract"

    def __init__(self, input_dim: int, output_dim: int, seed: int) -> None:
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        if output_dim < 1:
            raise ValueError(f"output_dim must be >= 1, got {output_dim}")
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)
        self.seed = int(seed)

    # -- projection ---------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Project ``x`` (a ``(d,)`` vector or ``(n, d)`` batch) to ``R^k``."""
        batch, single = self._as_batch(x)
        out = self._apply_batch(np.ascontiguousarray(batch))
        return out[0] if single else out

    def apply_batch(self, X) -> np.ndarray:
        """Project an ``(n, d)`` matrix of row vectors to ``(n, k)``.

        The batched entry point every vectorised caller should use: one
        validated pass through the transform's matrix implementation
        (a BLAS call, or :class:`CooProjector`'s tiled sparse product)
        instead of a Python loop per row.  ``n = 0`` is legal and
        yields a ``(0, k)`` result.

        ``X`` is coerced and shape-checked first.  A non-finite entry
        raises ``ValueError("X contains non-finite entries")``, checked
        on the ``(n, k)`` projection where that is exact: when
        :meth:`_input_projector` multiplies ``X`` by a matrix holding a
        stored entry in every input column (SJLT, DKS), a NaN or
        infinite coordinate reaches at least one output coordinate as
        NaN or infinity, so a finite projection proves a finite input
        at ``k/d`` of the reads.  ``X`` itself is read only when a
        projected entry is not finite: it raises when ``X`` holds one,
        and otherwise (a finite row whose projection overflowed) the
        projection is returned as is.  Every other transform checks
        ``X`` before projecting it.
        """
        X = coerce_float_matrix(X, self.input_dim, "X")
        projector = self._input_projector()
        if projector is None or not projector.covers_every_column:
            return self._apply_batch(check_finite(X, "X"))
        out = projector(X)
        if not np.isfinite(out).all():
            check_finite(X, "X")
        return out

    def _input_projector(self) -> "CooProjector | None":
        """The :class:`CooProjector` that ``_apply_batch`` applies to ``X`` itself.

        ``_apply_batch(X)`` must equal ``_input_projector()(X)`` byte for
        byte.  ``None`` (the default) for transforms with another stage
        in front of their sparse product, or none at all.
        """
        return None

    @abstractmethod
    def _apply_batch(self, X: np.ndarray) -> np.ndarray:
        """Core projection of a validated ``(n, d)`` float64 matrix.

        Row ``i`` of the result must equal ``apply(X[i])`` exactly (same
        floating-point summation order), so the batch and scalar paths
        stay interchangeable to machine precision.
        """

    def apply_sparse(self, indices, values) -> np.ndarray:
        """Project a sparse vector given as parallel ``(indices, values)``.

        Default: densify and call :meth:`apply`.  Sparse transforms
        override this with an ``O(s * nnz)`` path (Theorem 3, item 5).
        """
        x = np.zeros(self.input_dim)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.input_dim):
            raise ValueError("sparse indices outside input dimension")
        np.add.at(x, indices, np.asarray(values, dtype=np.float64))
        return self.apply(x)

    # -- streaming ----------------------------------------------------------

    @property
    def update_cost(self) -> int:
        """Number of sketch coordinates touched by one coordinate update."""
        return self.output_dim

    def coordinate_embedding(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(rows, values)`` with ``S e_index = sum values[r] e_rows[r]``.

        A streaming sketch absorbs the update ``(index, delta)`` by adding
        ``delta * values`` at ``rows`` — ``O(s)`` for sparse transforms.
        """
        index = check_index(index, self.input_dim)
        column = self.column_block(np.array([index]))[:, 0]
        rows = np.nonzero(column)[0]
        return rows, column[rows]

    # -- materialisation & sensitivity --------------------------------------

    def column_block(self, indices) -> np.ndarray:
        """Columns ``S[:, indices]`` as a dense ``(k, len(indices))`` array.

        Default implementation applies the transform to basis vectors;
        this is the ``O(dk)`` initialisation cost that Section 2.1.1
        attributes to exact sensitivity computation.
        """
        indices = np.asarray(indices, dtype=np.int64)
        basis = np.zeros((indices.size, self.input_dim))
        basis[np.arange(indices.size), indices] = 1.0
        return self.apply(basis).T

    def to_dense(self) -> np.ndarray:
        """Materialise ``S`` as a dense ``(k, d)`` array (test-sized only)."""
        return self.column_block(np.arange(self.input_dim))

    def sensitivity(self, p: float, block_size: int = 256) -> float:
        """Exact ``l_p``-sensitivity: ``max_j ||S e_j||_p`` (Definition 3).

        Subclasses with closed-form sensitivities (e.g. the SJLT's
        ``Delta_1 = sqrt(s)``, ``Delta_2 = 1``) override this to avoid
        the ``O(dk)`` scan.
        """
        return exact_sensitivity(self, p, block_size=block_size)

    @property
    def has_closed_form_sensitivity(self) -> bool:
        """Whether :meth:`sensitivity` avoids the ``O(dk)`` initialisation."""
        return type(self).sensitivity is not LinearTransform.sensitivity

    # -- helpers -------------------------------------------------------------

    def _as_batch(self, x) -> tuple[np.ndarray, bool]:
        return as_batch(x, self.input_dim, "x")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(input_dim={self.input_dim}, "
            f"output_dim={self.output_dim}, seed={self.seed})"
        )


class CooProjector:
    """Batched multiplication by a sparse ``(k, m)`` matrix given in COO form.

    The shared engine behind the sparse transforms' ``_apply_batch``:
    duplicate ``(row, col)`` entries are summed, matching the scatter-add
    semantics of the per-row ``bincount`` paths.  With ``scipy.sparse``
    the batch streams through tiles of ``tile_rows`` rows, about
    ``_TILE_BYTES`` of input but at least ``_MIN_TILE_ROWS`` rows: each
    tile is transposed (inside the cache while it fits the budget) and
    multiplied by the matrix as a ``(k, m)`` CSC.  Every output entry
    sums its terms in ascending input coordinate whatever the tiling,
    so a row's projection does not depend on the batch it arrives in.
    Without scipy a chunked ``bincount`` scatter takes over, so there
    is no hard scipy dependency.

    :attr:`covers_every_column` says whether the matrix holds a stored
    entry (a summed duplicate or an explicit zero included) in every
    input column, read from the matrix the product runs on.  Both
    paths multiply every stored entry into its output coordinate, so
    then a NaN or infinite input coordinate always reaches the output.
    """

    def __init__(self, rows, cols, values, output_dim: int, input_dim: int) -> None:
        self.output_dim = int(output_dim)
        self.input_dim = int(input_dim)
        self.tile_rows = max(_MIN_TILE_ROWS, _TILE_BYTES // (8 * self.input_dim))
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not rows.shape == cols.shape == values.shape:
            raise ValueError("rows, cols and values must be parallel arrays")
        self._matrix = None
        self._coo = None
        sparse = _load_scipy_sparse()
        if sparse is not None:
            # the canonical (m, k) CSR sums duplicates; its transpose is
            # a (k, m) CSC view of the same arrays, taken once here since
            # ``X @ csr`` would rebuild it per call.  A CSC product walks
            # input coordinates in ascending order, so every output entry
            # accumulates in that order whatever the tiling
            self._matrix = sparse.csr_matrix(
                (values, (cols, rows)), shape=(self.input_dim, self.output_dim)
            ).T
            stored = np.diff(self._matrix.indptr)  # entries per input column
        else:
            self._coo = (rows, cols, values)
            stored = np.bincount(cols, minlength=self.input_dim)
        self.covers_every_column = bool(stored.all())

    def __call__(self, X: np.ndarray) -> np.ndarray:
        """Map ``(n, m)`` rows through the matrix -> ``(n, k)`` rows."""
        if self._matrix is not None:
            out = np.empty((X.shape[0], self.output_dim))
            for start in range(0, X.shape[0], self.tile_rows):
                stop = start + self.tile_rows
                out[start:stop] = (self._matrix @ X[start:stop].T).T
            return out
        rows, cols, values = self._coo
        out = np.zeros((X.shape[0], self.output_dim))
        if X.shape[0] == 0 or values.size == 0:
            return out
        chunk = max(1, _SCATTER_BUFFER // values.size)
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            m = block.shape[0]
            contributions = block[:, cols] * values[np.newaxis, :]
            offsets = rows[np.newaxis, :] + self.output_dim * np.arange(m)[:, np.newaxis]
            out[start : start + m] = np.bincount(
                offsets.ravel(),
                weights=contributions.ravel(),
                minlength=m * self.output_dim,
            ).reshape(m, self.output_dim)
        return out


def exact_sensitivity(transform: LinearTransform, p: float, block_size: int = 256) -> float:
    """Compute ``max_j ||S e_j||_p`` by scanning columns in blocks.

    This is the paper's ``O(dk)`` initialisation step (Section 2.1.1);
    EXP-SENS measures its cost and validates closed forms against it.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    worst = 0.0
    for start in range(0, transform.input_dim, block_size):
        stop = min(start + block_size, transform.input_dim)
        block = transform.column_block(np.arange(start, stop))
        if np.isinf(p):
            norms = np.abs(block).max(axis=0)
        else:
            norms = (np.abs(block) ** p).sum(axis=0) ** (1.0 / p)
        worst = max(worst, float(norms.max()))
    return worst
