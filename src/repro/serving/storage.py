"""Storage specifications for quantised shard values.

The paper's whole trade is *accuracy for a private, compact
representation* of Euclidean geometry; :class:`StorageSpec` offers the
same dial at the storage layer.  A :class:`~repro.serving.store.ShardedSketchStore`
holds every shard's rows in one of four on-disk/in-memory element types:

===========  ==================  ===========  =================================
spec         storage dtype       scan dtype   per-coordinate rounding error
===========  ==================  ===========  =================================
``"f8"``     little-endian f64   float64      none (the full-precision path)
``"f4"``     little-endian f32   float32      ``|v| * 2**-24`` (half ulp)
``"f2"``     little-endian f16   float32      ``|v| * 2**-11`` (half ulp)
``"int8"``   int8 codes + scale  float32      ``step / 2``, per-shard ``step``
===========  ==================  ===========  =================================

The *scan dtype* is what queries actually see: :attr:`ShardView.values`
decodes storage to it on scan (``f4`` needs no decode at all — its
stored bytes are served zero-copy, memory-mapped included), and the
distance kernel in :func:`repro.core.estimators.cross_sq_distances_from_parts`
runs native float32 GEMVs over float32 scan values while accumulating
the norm and correction arithmetic in float64.

``int8`` is scalar quantisation with one scale per shard: codes are
``round(value / step)`` clipped to ``[-127, 127]``, decoded as
``float32(code) * step``.  The step is fixed by the first rows a shard
admits; a later chunk whose magnitude would clip **seals the shard**
instead of rescaling it (published rows are immutable — the store's
snapshot contract survives quantisation), and the chunk lands in a
fresh shard with its own step.  Decoding is deterministic, so a
quantised store round-trips save/load/mmap bit-identically.

The documented error envelope on squared-distance estimates — rounding
on top of the paper's sketch variance — lives in
:mod:`repro.theory.quantisation` and is asserted by the property suite.

``REPRO_STORE_DTYPE`` selects the default spec for newly constructed
stores (the same strict-parsing contract as the PR-4 serving env vars:
garbage fails loudly at construction, never silently falls back).
Loading a saved store always uses the storage recorded in its manifest,
not the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

_STORAGE_ENV = "REPRO_STORE_DTYPE"

#: int8 codes span [-127, 127]; -128 is unused so the code space is
#: symmetric and ``decode(encode(-x)) == -decode(encode(x))``.
INT8_CODE_MAX = 127


@dataclass(frozen=True)
class StorageSpec:
    """How a store lays out shard values in memory and on disk.

    ``dtype`` is the storage element type (little-endian on disk),
    ``scan_dtype`` what queries scan, and ``quantised`` marks the
    scalar-quantised int8 variant that carries a per-shard scale.
    """

    name: str
    dtype: np.dtype
    scan_dtype: np.dtype
    quantised: bool = False

    @property
    def itemsize(self) -> int:
        """Bytes per stored coordinate (8 / 4 / 2 / 1)."""
        return self.dtype.itemsize

    def __repr__(self) -> str:
        return f"StorageSpec({self.name!r})"

    # -- encode / decode -----------------------------------------------------

    def encode(self, rows: np.ndarray, scale: float | None = None) -> np.ndarray:
        """Float64 rows as this spec's storage array (float casts round)."""
        if not self.quantised:
            encoded = np.asarray(rows, dtype=self.dtype)
            if self.name == "f2":
                # float16 tops out at ~6.5e4: a finite value that casts
                # to inf would silently poison norms, prefilter bounds
                # and every distance involving the row
                overflowed = np.isinf(encoded) & np.isfinite(np.asarray(rows))
                if np.any(overflowed):
                    raise ValueError(
                        "values exceed the f2 range (~6.5e4) and would "
                        "overflow to inf; use f4 or f8 storage"
                    )
            return encoded
        if scale is None:
            raise ValueError("int8 encoding needs the shard's scale")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.size and not np.isfinite(rows).all():
            # clip() would silently turn inf/nan into legal-looking codes
            raise ValueError("int8 storage requires finite sketch values")
        codes = np.rint(rows / scale)
        return np.clip(codes, -INT8_CODE_MAX, INT8_CODE_MAX).astype(self.dtype)

    def decode(self, stored: np.ndarray, scale: float | None = None) -> np.ndarray:
        """Storage array as scan-dtype rows.

        ``f8``/``f4`` return ``stored`` unchanged (zero copy — a memory
        map stays a lazy memory map); ``f2`` widens to float32; ``int8``
        is ``float32(code) * scale``.  Deterministic: the same stored
        bytes always decode to the same scan values, which is what makes
        quantised save/load/mmap round trips bit-identical.
        """
        if self.name in ("f8", "f4"):
            return stored
        if not self.quantised:
            return stored.astype(self.scan_dtype)
        if scale is None:
            raise ValueError("int8 decoding needs the shard's scale")
        return stored.astype(self.scan_dtype) * scale

    def roundtrip(self, rows: np.ndarray) -> np.ndarray:
        """``decode(encode(rows))`` for the float specs (test helper).

        ``int8`` has no position-free round trip — its scale depends on
        which shard the rows land in — so it is rejected here.
        """
        if self.quantised:
            raise ValueError(
                "int8 storage quantises with a per-shard scale; there is no "
                "store-independent round trip"
            )
        return self.decode(self.encode(rows))

    @staticmethod
    def int8_step(max_abs: float) -> float:
        """The quantisation step a shard adopts for rows peaking at ``max_abs``."""
        return max_abs / INT8_CODE_MAX if max_abs > 0.0 else 1.0

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, value) -> "StorageSpec":
        """A :class:`StorageSpec` from a spec instance or its name."""
        if isinstance(value, cls):
            return value
        spec = STORAGE_SPECS.get(value)
        if spec is None:
            raise ValueError(
                f"unknown storage spec {value!r}: expected one of "
                f"{sorted(STORAGE_SPECS)}"
            )
        return spec

    @classmethod
    def from_env(cls) -> "StorageSpec":
        """The default spec, overridable via ``REPRO_STORE_DTYPE``.

        Unset or empty means ``f8`` (the full-precision default).  Any
        other value must name a spec exactly; garbage raises
        ``ValueError`` naming the variable, the offending value and the
        accepted forms — a typo in a deployment manifest should fail
        loudly at store construction, not silently serve full precision.
        """
        raw = os.environ.get(_STORAGE_ENV, "").strip()
        if not raw:
            return STORAGE_SPECS["f8"]
        try:
            return cls.parse(raw)
        except ValueError:
            raise ValueError(
                f"{_STORAGE_ENV}={raw!r} is not a valid storage spec: expected "
                f"one of {sorted(STORAGE_SPECS)} (unset it for f8)"
            ) from None


#: The four supported specs, by name.  Storage dtypes are pinned
#: little-endian so stores move between hosts of any byte order.
STORAGE_SPECS = {
    "f8": StorageSpec("f8", np.dtype("<f8"), np.dtype(np.float64)),
    "f4": StorageSpec("f4", np.dtype("<f4"), np.dtype(np.float32)),
    "f2": StorageSpec("f2", np.dtype("<f2"), np.dtype(np.float32)),
    "int8": StorageSpec("int8", np.dtype("i1"), np.dtype(np.float32), quantised=True),
}
