"""The Dasgupta-Kumar-Sarlos (DKS) sparse JL transform.

Section 2.1 discusses the DKS construction [14] whose sparsity
``s = Omega~(alpha^-1 log^2(1/beta))`` Kane & Nelson later improved.
We implement the hashed variant: each column receives ``s`` signed
entries at rows drawn *with replacement*, so entries can collide within
a column (the net entry is the signed sum).  LPP still holds exactly,
but column norms — and thus sensitivities — are random, which is exactly
why the paper's block SJLT is preferable for private calibration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hashing import prg
from repro.transforms.base import CooProjector, LinearTransform


class DKSTransform(LinearTransform):
    """Sparse JL with ``s`` signed entries per column, drawn with replacement."""

    name = "dks"

    def __init__(self, input_dim: int, output_dim: int, sparsity: int, seed: int) -> None:
        super().__init__(input_dim, output_dim, seed)
        if not 1 <= sparsity <= output_dim:
            raise ValueError(f"sparsity must lie in [1, {output_dim}], got {sparsity}")
        self.sparsity = int(sparsity)
        rng = prg.derive_rng(seed, "dks-transform", input_dim, output_dim, sparsity)
        # rows/signs have shape (s, d): entry r of column j lands at
        # rows[r, j] with sign signs[r, j].
        self._rows = rng.integers(0, output_dim, size=(sparsity, input_dim))
        self._signs = (1.0 - 2.0 * rng.integers(0, 2, size=(sparsity, input_dim))).astype(
            np.float64
        )
        self._scale = 1.0 / math.sqrt(sparsity)
        self._projector: CooProjector | None = None

    @property
    def update_cost(self) -> int:
        return self.sparsity

    def _apply_batch(self, X: np.ndarray) -> np.ndarray:
        return self._input_projector()(X)

    def _input_projector(self) -> CooProjector:
        if self._projector is None:
            cols = np.broadcast_to(np.arange(self.input_dim), self._rows.shape)
            # within-column row collisions sum their signed entries,
            # matching the with-replacement construction
            self._projector = CooProjector(
                self._rows, cols, self._scale * self._signs, self.output_dim, self.input_dim
            )
        return self._projector

    def apply_sparse(self, indices, values) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.input_dim):
            raise ValueError("sparse indices outside input dimension")
        rows = self._rows[:, indices].ravel()
        contributions = (self._signs[:, indices] * values[np.newaxis, :]).ravel()
        return self._scale * np.bincount(
            rows, weights=contributions, minlength=self.output_dim
        )

    def coordinate_embedding(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= index < self.input_dim:
            raise ValueError(f"index must lie in [0, {self.input_dim}), got {index}")
        rows = self._rows[:, index]
        values = self._scale * self._signs[:, index]
        return rows.copy(), values.copy()

    def column_block(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        block = np.zeros((self.output_dim, indices.size))
        for out_col, j in enumerate(indices):
            np.add.at(block[:, out_col], self._rows[:, j], self._scale * self._signs[:, j])
        return block
