"""The Sparser Johnson-Lindenstrauss Transform (Kane & Nelson).

Section 6.1 of the paper: for ``k = Theta(alpha^-2 log(1/beta))`` and
sparsity ``s = O(alpha^-1 log(1/beta))``, the block construction (c)
uses hash functions ``h_1..h_s : [d] -> [k/s]`` and sign functions
``phi_1..phi_s : [d] -> {-1,+1}`` from ``O(log(1/beta))``-wise
independent families and sets

    S[(i, r), j] = phi_r(j) * 1[h_r(j) = i] / sqrt(s).

Every column has *exactly* ``s`` entries of magnitude ``1/sqrt(s)``, so
the sensitivities are deterministic closed forms:

    Delta_1 = sqrt(s),   Delta_2 = 1,   Delta_p = s^(1/p - 1/2).

That determinism is the paper's key structural advantage over the
i.i.d. Gaussian transform: noise can be calibrated exactly with no
``O(dk)`` initialisation and no failure probability hidden in delta.

The graph construction (b) — ``s`` distinct rows per column chosen
uniformly — is implemented as well; we sample it with a seeded PRG
(full independence) since limited-independence without-replacement
sampling has no clean vectorised form (substitution documented in
docs/ARCHITECTURE.md; the variance analysis only uses <= 4-wise
moments, which full independence trivially satisfies).
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing import prg
from repro.hashing.kwise import KWiseHash, SignHash
from repro.transforms.base import CooProjector, LinearTransform

#: Precompute hash tables when ``s * d`` is at most this many entries.
_PRECOMPUTE_LIMIT = 1 << 22

_CONSTRUCTIONS = ("block", "graph")


class SJLT(LinearTransform):
    """Kane-Nelson sparser JL transform with exact closed-form sensitivity.

    Parameters
    ----------
    input_dim, output_dim:
        Shape of the projection (``d`` and ``k``).
    sparsity:
        Non-zeros per column ``s``; must divide ``output_dim`` for the
        block construction.
    seed:
        Public seed; identical seeds yield identical transforms.
    construction:
        ``"block"`` (paper construction (c), the default) or ``"graph"``
        (construction (b)).
    independence:
        Independence ``t`` of the polynomial hash families (block
        construction only).  The paper requires ``t = O(log(1/beta))``;
        the default 8 covers every 4th-moment argument in the analysis.
    precompute:
        ``True``/``False``/``"auto"`` — whether to materialise the
        ``(s, d)`` row/sign tables.  Lazy mode recomputes hashes per
        call, trading time for ``O(1)`` memory in ``d``.
    """

    name = "sjlt"

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        sparsity: int,
        seed: int,
        construction: str = "block",
        independence: int = 8,
        precompute="auto",
    ) -> None:
        super().__init__(input_dim, output_dim, seed)
        if construction not in _CONSTRUCTIONS:
            raise ValueError(f"construction must be one of {_CONSTRUCTIONS}, got {construction!r}")
        if not 1 <= sparsity <= output_dim:
            raise ValueError(f"sparsity must lie in [1, {output_dim}], got {sparsity}")
        if construction == "block" and output_dim % sparsity:
            raise ValueError(
                f"block construction needs sparsity | output_dim, got "
                f"s={sparsity}, k={output_dim}"
            )
        if independence < 2:
            raise ValueError(f"independence must be >= 2, got {independence}")
        self.sparsity = int(sparsity)
        self.construction = construction
        self.independence = int(independence)
        self._scale = 1.0 / math.sqrt(self.sparsity)

        if precompute == "auto":
            precompute = input_dim * sparsity <= _PRECOMPUTE_LIMIT
        self._rows: np.ndarray | None = None
        self._sign_table: np.ndarray | None = None
        self._hashes: list[KWiseHash] = []
        self._sign_hashes: list[SignHash] = []
        self._projector: CooProjector | None = None

        if construction == "block":
            block_size = output_dim // sparsity
            self._block_size = block_size
            for r in range(sparsity):
                self._hashes.append(
                    KWiseHash(independence, block_size, prg.derive_rng(seed, "sjlt-h", r))
                )
                self._sign_hashes.append(
                    SignHash(independence, prg.derive_rng(seed, "sjlt-phi", r))
                )
            if precompute:
                rows, signs = self._hash_tables(np.arange(input_dim))
                self._rows, self._sign_table = rows, signs
        else:
            self._block_size = 0
            rows, signs = _sample_graph_tables(
                input_dim, output_dim, sparsity, prg.derive_rng(seed, "sjlt-graph")
            )
            self._rows, self._sign_table = rows, signs

    # -- table construction ---------------------------------------------------

    def _hash_tables(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate block-construction hashes at ``indices`` -> ``(s, m)`` tables."""
        rows = np.empty((self.sparsity, indices.size), dtype=np.int64)
        signs = np.empty((self.sparsity, indices.size), dtype=np.float64)
        for r in range(self.sparsity):
            rows[r] = r * self._block_size + self._hashes[r](indices)
            signs[r] = self._sign_hashes[r](indices)
        return rows, signs

    def _tables_for(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is not None:
            return self._rows[:, indices], self._sign_table[:, indices]
        return self._hash_tables(indices)

    def _full_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is not None:
            return self._rows, self._sign_table
        return self._hash_tables(np.arange(self.input_dim))

    # -- projection ------------------------------------------------------------

    @property
    def update_cost(self) -> int:
        return self.sparsity

    def _apply_batch(self, X: np.ndarray) -> np.ndarray:
        return self._input_projector()(X)

    def _input_projector(self) -> CooProjector:
        """The whole transform as one sparse projector (single hash pass).

        Cached when the hash tables are precomputed; rebuilt per call in
        lazy mode, whose memory contract is transient ``O(s d)`` — the
        same as the tables the old per-row path materialised.  Every
        column holds ``s`` entries, so ``apply_batch`` checks the
        projection for non-finite values instead of the input.
        """
        if self._projector is not None:
            return self._projector
        rows, signs = self._full_tables()
        cols = np.broadcast_to(np.arange(self.input_dim), rows.shape)
        projector = CooProjector(
            rows, cols, self._scale * signs, self.output_dim, self.input_dim
        )
        if self._rows is not None:
            self._projector = projector
        return projector

    def apply_sparse(self, indices, values) -> np.ndarray:
        """Project a sparse vector in ``O(s * nnz + k)`` (Theorem 3, item 5)."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.shape != values.shape or indices.ndim != 1:
            raise ValueError("indices and values must be parallel 1-d arrays")
        if indices.size and (indices.min() < 0 or indices.max() >= self.input_dim):
            raise ValueError("sparse indices outside input dimension")
        rows, signs = self._tables_for(indices)
        contributions = (signs * values[np.newaxis, :]).ravel()
        sketch = np.bincount(rows.ravel(), weights=contributions, minlength=self.output_dim)
        return self._scale * sketch

    def coordinate_embedding(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``s`` rows and values of column ``index`` — an ``O(s)`` update."""
        if not 0 <= index < self.input_dim:
            raise ValueError(f"index must lie in [0, {self.input_dim}), got {index}")
        rows, signs = self._tables_for(np.array([index]))
        return rows[:, 0].copy(), self._scale * signs[:, 0]

    def column_block(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        rows, signs = self._tables_for(indices)
        block = np.zeros((self.output_dim, indices.size))
        cols = np.broadcast_to(np.arange(indices.size), rows.shape)
        np.add.at(block, (rows.ravel(), cols.ravel()), self._scale * signs.ravel())
        return block

    # -- sensitivity -------------------------------------------------------------

    def sensitivity(self, p: float, block_size: int = 256) -> float:
        """Closed form ``Delta_p = s^(1/p - 1/2)`` (Section 6.2.3).

        Exact for both constructions because every column has exactly
        ``s`` non-zero entries of magnitude ``1/sqrt(s)``.
        """
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        if np.isinf(p):
            return self._scale
        return float(self.sparsity) ** (1.0 / p - 0.5)


def _sample_graph_tables(
    input_dim: int, output_dim: int, sparsity: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``s`` *distinct* rows per column (construction (b)) by rejection.

    Columns with duplicate rows are redrawn wholesale; with
    ``s^2 / (2k) < 1/2`` the expected number of rounds is O(1).
    """
    rows = rng.integers(0, output_dim, size=(sparsity, input_dim))
    for _ in range(200):
        sorted_rows = np.sort(rows, axis=0)
        collided = (np.diff(sorted_rows, axis=0) == 0).any(axis=0)
        if not collided.any():
            break
        rows[:, collided] = rng.integers(0, output_dim, size=(sparsity, int(collided.sum())))
    else:  # pragma: no cover - astronomically unlikely for valid (s, k)
        raise RuntimeError("graph construction failed to avoid collisions; is s close to k?")
    signs = (1.0 - 2.0 * rng.integers(0, 2, size=(sparsity, input_dim))).astype(np.float64)
    return rows.astype(np.int64), signs
