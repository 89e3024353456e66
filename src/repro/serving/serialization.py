"""Versioned binary container and on-disk layout for released sketch batches.

The serving layer persists :class:`~repro.core.sketch.SketchBatch`
payloads to disk, so unlike the wire-friendly format of
:meth:`SketchBatch.to_bytes` it needs a *versioned* container that can
detect corruption and evolve without breaking stored shards.

Format version 3 lays the values section out as a raw, 64-byte-aligned
segment in one of the :mod:`repro.serving.storage` element types so a
reader can ``np.memmap`` the rows straight out of the file without
materialising them::

    offset  size  field
    0       4     magic  b"RSKB"
    4       2     format version (3)
    6       4     header length H
    10      H     JSON header: batch metadata, typed labels, the values
                  byte length, the storage spec name and (for int8) its
                  quantisation scale, SHA-256 digests of metadata/values
    10+H    ...   zero padding up to the first 64-byte boundary
    A       ...   values: raw little-endian storage dtype, C row-major

where ``A = ceil((10 + H) / 64) * 64`` is derived from the header
length, so the offset needs no forward pointer.  Two digests cover the
two sections independently: ``meta_sha256`` (always verified, even on a
memory-mapped open) and ``values_sha256`` (verified on eager reads and
at the end of every streamed read; a memory-mapped open defers it,
trading corruption detection for not touching the data — see
:func:`read_batch_info`).  The recorded ``sq_norm_bounds`` are computed
from the *decoded* rows, so the norm-bound prefilter over a quantised
mapped shard bounds exactly the values queries will scan.

Version 3 is the only format read or written: any other version (the
retired versions 1 and 2 included) fails with a
:class:`SerializationError` naming it.

Labels are stored with a **typed JSON encoding** (:func:`encode_label`):
``None``, booleans, integers, floats and strings survive as themselves,
tuples/lists/dicts survive recursively, and anything else degrades to
its ``str()`` with an explicit marker — so ``load(save(store))`` gives
back labels *equal to the originals*.  Non-finite float labels
(``nan``/``inf``) carry an ``f8`` hex tag so the header stays strict
RFC 8259 JSON.

The module also owns the store's **directory layout** — a
``manifest.json`` naming the live ``gen-NNNNN`` shard directory — and
:func:`publish`, the one publish protocol of every store writer.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import io
import json
import math
import numbers
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.core.sketch import SketchBatch
from repro.dp.mechanisms import PrivacyGuarantee
from repro.serving.storage import STORAGE_SPECS, StorageSpec

MAGIC = b"RSKB"
FORMAT_VERSION = 3

_PREFIX_LEN = len(MAGIC) + 2 + 4  # magic + version + header length
_ALIGNMENT = 64  # values segment starts on a 64-byte boundary


class SerializationError(ValueError):
    """Raised when a stored batch blob is malformed, truncated or corrupt."""


# -- typed label encoding ------------------------------------------------------

_LABEL_KEY = "__label__"


def encode_label(label) -> object:
    """Encode one label as a JSON value that preserves its Python type.

    JSON-native scalars (``None``, ``bool``, ``int``, ``float``, ``str``)
    pass through; numpy scalars (``np.int64`` from ``np.arange`` labels,
    ``np.float64``, ``np.bool_``) decode as their equal Python scalars;
    tuples, lists and dicts are wrapped recursively so the container
    kind survives; any other object degrades to ``str(label)`` with an
    explicit marker (the lossy case is visible, not silent).
    """
    if type(label) is int or label is None or isinstance(label, str):
        return label  # exact ints first: one per row on every rewrite
    if isinstance(label, (bool, np.bool_)):  # bools are Integral; catch first
        return bool(label)
    if isinstance(label, numbers.Integral):
        return int(label)
    if isinstance(label, numbers.Real):  # normalises np.float64 and friends
        value = float(label)
        if not math.isfinite(value):
            # bare NaN/Infinity tokens are not strict JSON; hex-tag them
            return {_LABEL_KEY: "f8", "value": value.hex()}
        return value
    if isinstance(label, tuple):
        return {_LABEL_KEY: "tuple", "items": [encode_label(x) for x in label]}
    if isinstance(label, list):
        return {_LABEL_KEY: "list", "items": [encode_label(x) for x in label]}
    if isinstance(label, dict):
        return {
            _LABEL_KEY: "dict",
            "items": [[encode_label(k), encode_label(v)] for k, v in label.items()],
        }
    return {_LABEL_KEY: "str", "value": str(label)}


def decode_label(encoded) -> object:
    """Inverse of :func:`encode_label`."""
    if not isinstance(encoded, dict):
        return encoded
    kind = encoded.get(_LABEL_KEY)
    if kind == "tuple":
        return tuple(decode_label(x) for x in encoded["items"])
    if kind == "list":
        return [decode_label(x) for x in encoded["items"]]
    if kind == "dict":
        return {decode_label(k): decode_label(v) for k, v in encoded["items"]}
    if kind == "str":
        return encoded["value"]
    if kind == "f8":
        return float.fromhex(encoded["value"])
    raise SerializationError(f"unknown label encoding {encoded!r}")


# -- the writers ---------------------------------------------------------------


def _values_offset(header_len: int) -> int:
    """First 64-byte boundary past the prefix + header."""
    end = _PREFIX_LEN + header_len
    return ((end + _ALIGNMENT - 1) // _ALIGNMENT) * _ALIGNMENT


def _meta_dict(
    template: SketchBatch,
    labels,
    n_rows: int,
    sq_norm_bounds,
    values_nbytes: int,
    spec: StorageSpec,
    scale: float | None,
) -> dict:
    """A container's header metadata; the norm bounds are of the *decoded*
    rows, which the mapped prefilter must bound exactly."""
    return {
        "n_rows": n_rows,
        "sq_norm_bounds": sq_norm_bounds,
        "input_dim": template.input_dim,
        "output_dim": template.output_dim,
        "perturbation": template.perturbation,
        "noise_spec": template.noise_spec,
        "noise_second_moment": template.noise_second_moment,
        "epsilon": template.guarantee.epsilon,
        "delta": template.guarantee.delta,
        "config_digest": template.config_digest,
        "labels": [encode_label(label) for label in labels],
        "values_nbytes": values_nbytes,
        "storage": spec.name,
        "scale": scale,
    }


def _meta_digest(meta: dict) -> str:
    return hashlib.sha256(
        json.dumps(meta, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _assemble(meta: dict, values_sha256: str) -> bytes:
    """Everything before the values segment: prefix, header, padding."""
    header = dict(meta, meta_sha256=_meta_digest(meta), values_sha256=values_sha256)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    padding = b"\0" * (_values_offset(len(header_bytes)) - _PREFIX_LEN - len(header_bytes))
    return (
        MAGIC
        + FORMAT_VERSION.to_bytes(2, "big")
        + len(header_bytes).to_bytes(4, "big")
        + header_bytes
        + padding
    )


def _sq_norm_range(decoded: np.ndarray) -> tuple[float, float] | None:
    if not decoded.shape[0]:
        return None
    rows = np.asarray(decoded, dtype=np.float64)
    norms = np.einsum("ij,ij->i", rows, rows)
    return float(norms.min()), float(norms.max())


_F8 = StorageSpec.parse("f8")


def batch_to_bytes(batch: SketchBatch) -> bytes:
    """A batch as an ``f8`` v3 container in memory: the same bytes
    :class:`StreamingBatchWriter` commits for these rows."""
    values = np.ascontiguousarray(batch.values, dtype=_F8.dtype).tobytes()
    meta = _meta_dict(
        batch, batch.labels, len(batch), _sq_norm_range(np.asarray(batch.values)),
        len(values), _F8, None,
    )
    return _assemble(meta, hashlib.sha256(values).hexdigest()) + values


# -- parsing -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BatchInfo:
    """Everything about a stored batch except the values themselves.

    Produced by :func:`read_batch_info` from the container header alone
    — the values section is *not* read, which is what makes lazy /
    memory-mapped shard loading possible.  ``meta`` is a zero-row
    :class:`SketchBatch` carrying the shared metadata; ``labels`` are
    fully decoded; ``values_offset`` / ``values_nbytes`` locate the raw
    values segment for :func:`map_values`.
    """

    path: str | os.PathLike | None
    n_rows: int
    values_offset: int
    values_nbytes: int
    labels: tuple
    meta: SketchBatch
    #: ``(min, max)`` of the *decoded* rows' squared norms, recorded at
    #: write time (``None`` for a zero-row batch) — lets the norm-bound
    #: prefilter rule a mapped shard out without reading it.
    sq_norm_bounds: tuple[float, float] | None
    #: Storage spec name of the values segment.
    storage: str
    #: int8 quantisation step (``None`` for the float specs).
    scale: float | None
    #: Recorded digest of the values segment.
    values_sha256: str
    #: Recorded digest of the header metadata (verified when parsed).
    meta_sha256: str

    @property
    def output_dim(self) -> int:
        return self.meta.output_dim

    @property
    def storage_spec(self) -> StorageSpec:
        return StorageSpec.parse(self.storage)


def _read_exact(stream, n: int, what: str) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise SerializationError(f"blob truncated inside the {what}")
    return data


def _parse_prefix(stream) -> dict:
    """Read magic/version/header; return the parsed header dict."""
    prefix = stream.read(_PREFIX_LEN)
    if len(prefix) < _PREFIX_LEN:
        raise SerializationError(
            f"blob of {len(prefix)} bytes is shorter than the {_PREFIX_LEN}-byte prefix"
        )
    if prefix[:4] != MAGIC:
        raise SerializationError(f"bad magic {prefix[:4]!r}, expected {MAGIC!r}")
    version = int.from_bytes(prefix[4:6], "big")
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {version} "
            f"(this build reads only version {FORMAT_VERSION})"
        )
    header_len = int.from_bytes(prefix[6:10], "big")
    header_bytes = _read_exact(stream, header_len, "header")
    try:
        return json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"header is not valid JSON: {exc}") from exc


def _parse_header(meta: dict, header_len: int) -> BatchInfo:
    """A :class:`BatchInfo` from a parsed header (all but the digests is metadata)."""
    try:
        meta_digest = meta.pop("meta_sha256")
        values_digest = meta.pop("values_sha256")
        if _meta_digest(meta) != meta_digest:
            raise SerializationError(
                "metadata digest mismatch: stored batch header is corrupt"
            )
        spec = STORAGE_SPECS.get(meta["storage"])
        if spec is None:
            raise SerializationError(f"unknown storage spec {meta['storage']!r}")
        scale = meta["scale"]
        if spec.quantised and scale is None:
            raise SerializationError("int8 values segment recorded without a scale")
        bounds = meta["sq_norm_bounds"]
        info = BatchInfo(
            path=None,
            n_rows=int(meta["n_rows"]),
            values_offset=_values_offset(header_len),
            values_nbytes=int(meta["values_nbytes"]),
            labels=tuple(decode_label(label) for label in meta["labels"]),
            meta=SketchBatch(
                values=np.empty((0, meta["output_dim"])),
                input_dim=meta["input_dim"],
                output_dim=meta["output_dim"],
                perturbation=meta["perturbation"],
                noise_spec=meta["noise_spec"],
                noise_second_moment=meta["noise_second_moment"],
                guarantee=PrivacyGuarantee(meta["epsilon"], meta["delta"]),
                config_digest=meta["config_digest"],
            ),
            sq_norm_bounds=None if bounds is None else (float(bounds[0]), float(bounds[1])),
            storage=spec.name,
            scale=None if scale is None else float(scale),
            values_sha256=values_digest,
            meta_sha256=meta_digest,
        )
    except KeyError as exc:
        raise SerializationError(f"header is missing required field {exc}") from exc
    expected = info.n_rows * info.meta.output_dim * spec.itemsize
    if info.values_nbytes != expected:
        raise SerializationError(
            f"header claims {info.values_nbytes} value bytes for "
            f"{info.n_rows} x {info.meta.output_dim} {spec.name} rows "
            f"(expected {expected})"
        )
    if info.labels and len(info.labels) != info.n_rows:
        # the eager path would trip SketchBatch's own validation; the
        # header-only path must reject the same inconsistency itself
        raise SerializationError(
            f"header carries {len(info.labels)} labels for {info.n_rows} rows"
        )
    return info


def _check_values_digest(info: BatchInfo, digest: str) -> None:
    if digest != info.values_sha256:
        raise SerializationError(
            "payload digest mismatch: stored batch is corrupt "
            f"(expected {info.values_sha256}, got {digest})"
        )


def batch_raw_from_bytes(blob: bytes) -> tuple[BatchInfo, np.ndarray]:
    """A container held in memory as its info and raw (undecoded) codes.

    Every layer is validated, both digests included.
    """
    stream = io.BytesIO(blob)
    header = _parse_prefix(stream)
    info = _parse_header(header, stream.tell() - _PREFIX_LEN)
    values = memoryview(blob)[info.values_offset :]
    if len(values) != info.values_nbytes:
        raise SerializationError(
            f"payload has {len(values)} bytes, header says {info.values_nbytes}"
        )
    _check_values_digest(info, hashlib.sha256(values).hexdigest())
    raw = np.frombuffer(values, dtype=info.storage_spec.dtype)
    return info, raw.reshape(info.n_rows, info.meta.output_dim)


def batch_from_bytes(blob: bytes) -> SketchBatch:
    """Inverse of :func:`batch_to_bytes`, validating every layer.

    Decodes any storage spec to float64 rows.  Raises
    :class:`SerializationError` for a bad magic, a format version other
    than 3, a truncated header or payload, a payload whose size
    disagrees with the header, or a digest that does not match the one
    recorded at write time.
    """
    info, raw = batch_raw_from_bytes(blob)
    values = info.storage_spec.decode(raw, info.scale).astype(np.float64, copy=True)
    return dataclasses.replace(info.meta, values=values, labels=info.labels)


def read_batch_info(path: str | os.PathLike) -> BatchInfo:
    """Parse a stored batch's header without reading its values section.

    The values digest is **not** verified (that would require reading
    the values); the metadata digest is.  Use :func:`map_values` on the
    result to get the rows as a read-only memory map, or
    :func:`read_batch` for a fully verified eager load.
    """
    with open(path, "rb") as stream:
        header = _parse_prefix(stream)
        # the true header length is the file position past the prefix
        info = _parse_header(header, stream.tell() - _PREFIX_LEN)
    return dataclasses.replace(info, path=os.fspath(path))


def map_values(info: BatchInfo) -> np.ndarray:
    """The raw values segment of a stored batch as a read-only ``np.memmap``.

    The rows are mapped straight out of the file in the *storage* dtype
    — nothing is read until pages are touched, and the OS can evict
    them under memory pressure, which is what lets stores larger than
    RAM serve queries.  Quantised segments map as their codes; decode
    with ``info.storage_spec.decode(..., info.scale)`` to get scan
    values.  Corruption in the values section is *not* detected on this
    path (the digest is only checked by eager and streamed reads).
    """
    if info.path is None:
        raise ValueError("this BatchInfo was parsed from bytes, not a file")
    shape = (info.n_rows, info.meta.output_dim)
    if info.n_rows == 0:
        return np.empty(shape, dtype=info.storage_spec.dtype)
    end = info.values_offset + info.values_nbytes
    if os.path.getsize(info.path) < end:
        raise SerializationError(
            f"{info.path} is truncated: values section ends at byte {end}"
        )
    return np.memmap(
        info.path,
        dtype=info.storage_spec.dtype,
        mode="r",
        offset=info.values_offset,
        shape=shape,
    )


def read_batch_raw(path: str | os.PathLike) -> tuple[BatchInfo, np.ndarray]:
    """Eagerly read a stored batch's *raw* storage values, digest-verified.

    The store's eager load path: unlike :func:`read_batch` it hands
    back the storage codes exactly as written (no decode, no float64
    widening), so a quantised store reloads its shards bit-identically
    instead of round-tripping through full precision.
    """
    with open(path, "rb") as handle:
        info, raw = batch_raw_from_bytes(handle.read())
    return dataclasses.replace(info, path=os.fspath(path)), raw


def read_batch(path: str | os.PathLike) -> SketchBatch:
    """Read (eagerly, with full digest verification) a stored batch."""
    with open(path, "rb") as handle:
        return batch_from_bytes(handle.read())


def link_blob(info: BatchInfo, path: str | os.PathLike) -> bool:
    """Hard-link the stored blob ``info`` was read from to ``path``.

    A published blob is never modified in place, so a file that still
    records the two digests ``info`` read from it holds the same
    container, and another generation can share it instead of writing
    a copy.  The link is made first and its header read afterwards, so
    the check covers the very file ``path`` now names.  Returns
    ``False``, with nothing left at ``path``, when the source was
    pruned or replaced by a blob with other digests, or when the
    filesystem refuses the link (another device, no hard links): the
    caller then writes the container itself.  The values are not
    re-read: a linked blob is exactly as verified as its source.
    """
    try:
        os.link(info.path, path)
    except OSError:
        return False
    try:
        linked = read_batch_info(path)
        same = (linked.meta_sha256, linked.values_sha256) == (
            info.meta_sha256, info.values_sha256,
        )
    except (OSError, ValueError):  # SerializationError included
        same = False
    if not same:
        os.remove(path)
    return same


# -- streaming -----------------------------------------------------------------

#: Default rows per streamed block: 8192 rows of a k=256 f8 sketch is
#: 16 MiB — big enough to amortise syscalls and BLAS/hashing setup,
#: small enough that maintenance peak RSS is shard-size independent.
DEFAULT_BLOCK_ROWS = 8192


def iter_batch_rows(info: BatchInfo, block_rows: int = DEFAULT_BLOCK_ROWS, *,
                    verify: bool = True):
    """Stream a stored batch's raw storage codes in bounded row blocks.

    Yields C-contiguous ``(<= block_rows, output_dim)`` arrays in the
    *storage* dtype (no decode, no float64 widening), read with plain
    buffered I/O rather than ``mmap`` so peak RSS is genuinely bounded
    by one block — the foundation every store rewrite is built on.  The
    recorded values digest accumulates across blocks and is verified
    once the stream is exhausted (``verify=False`` skips it); a
    partially consumed generator verifies nothing.  Callers that write
    the blocks somewhere permanent must therefore finish the stream
    *before* publishing the result — every writer streams into a
    staging directory precisely so a corrupt source aborts the whole
    rewrite instead of publishing half of it.
    """
    if info.path is None:
        raise ValueError("this BatchInfo was parsed from bytes, not a file")
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    dtype = info.storage_spec.dtype
    row_nbytes = info.meta.output_dim * dtype.itemsize
    digest = hashlib.sha256() if verify else None
    with open(info.path, "rb") as stream:
        stream.seek(info.values_offset)
        remaining = info.n_rows
        while remaining:
            take = min(block_rows, remaining)
            data = _read_exact(stream, take * row_nbytes, "values section")
            if digest is not None:
                digest.update(data)
            yield np.frombuffer(data, dtype=dtype).reshape(
                take, info.meta.output_dim
            )
            remaining -= take
    if digest is not None:
        _check_values_digest(info, digest.hexdigest())


class StreamingBatchWriter:
    """Write a format-3 container incrementally, one row block at a time.

    The only file writer.  The v3 header *precedes* the values segment
    and records its SHA-256 digest, row count and decoded norm bounds —
    none of which a streaming writer knows up front.  So they accumulate
    block by block while every block but the latest spills to an
    anonymous temporary file; :meth:`commit` writes the header (with the
    helpers of :func:`batch_to_bytes`), the spill and the held block, so
    a one-block shard is written once.  Peak memory is O(block), and the
    bytes do not depend on how the rows were split into blocks.

    ``template`` is a zero-row :class:`SketchBatch` carrying the shared
    metadata.  :meth:`append` takes raw storage *codes* already encoded
    for ``storage``/``scale`` (an int8 writer needs its scale fixed at
    construction: per-shard scales are immutable once rows are
    published, so re-encoding decides scales *before* opening a
    writer).  Labels ride along per block; they accumulate in memory,
    which is fine — labels are header metadata, small next to the
    values, and the store's positional-elision rule passes ``()``
    anyway.  Use as a context manager: an exception aborts and removes
    any partial output file.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        template: SketchBatch,
        *,
        storage="f8",
        scale: float | None = None,
    ) -> None:
        self._spec = StorageSpec.parse(storage)
        if self._spec.quantised and scale is None:
            raise ValueError(
                "int8 streaming writes need their quantisation scale fixed "
                "up front (per-shard scales are immutable once published)"
            )
        self._path = os.fspath(path)
        self._template = template
        self._scale = scale
        self._spill = tempfile.TemporaryFile(dir=os.path.dirname(self._path) or None)
        self._held = np.empty((0, template.output_dim), self._spec.dtype)  # unwritten
        self._digest = hashlib.sha256()
        self._labels: list = []
        self._min_sq = np.inf
        self._max_sq = -np.inf
        self.n_rows = 0
        self.nbytes = 0
        self._committed = False

    def append(self, codes: np.ndarray, labels=()) -> None:
        """Stream one block of raw storage codes (plus its labels).

        The block is held, not copied, until the next append or the
        commit: it must not change before then.
        """
        codes = np.ascontiguousarray(codes, dtype=self._spec.dtype)
        if codes.ndim != 2 or codes.shape[1] != self._template.output_dim:
            raise ValueError(
                f"block of shape {codes.shape} does not hold "
                f"output_dim={self._template.output_dim} rows"
            )
        if labels and len(labels) != codes.shape[0]:
            raise ValueError(
                f"got {len(labels)} labels for a {codes.shape[0]}-row block"
            )
        self._digest.update(codes)
        self._spill.write(self._held)
        self._held = codes
        bounds = _sq_norm_range(self._spec.decode(codes, self._scale))
        if bounds is not None:
            self._min_sq = min(self._min_sq, bounds[0])
            self._max_sq = max(self._max_sq, bounds[1])
        self.n_rows += codes.shape[0]
        self.nbytes += codes.nbytes
        self._labels.extend(labels)

    def commit(self) -> None:
        """Assemble the final container; the writer is spent afterwards."""
        if self._committed:
            raise ValueError(f"{self._path} was already committed")
        meta = _meta_dict(
            self._template,
            self._labels,
            self.n_rows,
            None if self.n_rows == 0 else [self._min_sq, self._max_sq],
            self.nbytes,
            self._spec,
            self._scale,
        )
        with open(self._path, "wb") as out:
            out.write(_assemble(meta, self._digest.hexdigest()))
            self._spill.seek(0)
            shutil.copyfileobj(self._spill, out, 1 << 20)
            out.write(self._held)
        self._spill.close()
        self._committed = True

    def abort(self) -> None:
        """Drop the spill and any partial output (idempotent)."""
        self._spill.close()
        if not self._committed:
            try:
                os.remove(self._path)
            except FileNotFoundError:
                pass

    def __enter__(self) -> "StreamingBatchWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None or not self._committed:
            self.abort()


# -- routing blobs -------------------------------------------------------------

ROUTING_FORMAT_VERSION = 1
ROUTING_BLOB_NAME = "routing.json"


def write_routing_blob(path: str | os.PathLike, payload: dict,
                       centroids: np.ndarray, radii: np.ndarray) -> str:
    """Write a shard-routing table next to its shards; returns its digest.

    The blob is JSON — ``payload`` (the layout facts a
    :class:`~repro.serving.routing.ShardRouting` pins) plus the
    centroid matrix and radius vector as base64 little-endian float64 —
    so it stays greppable and versioned like the manifest.  The
    returned sha256 of the file bytes goes into the manifest's
    ``routing`` entry, which is how a swapped or truncated blob is
    caught at load time.
    """
    centroids = np.ascontiguousarray(centroids, dtype="<f8")
    radii = np.ascontiguousarray(radii, dtype="<f8")
    blob = json.dumps(
        {
            "routing_format": ROUTING_FORMAT_VERSION,
            **payload,
            "centroids": base64.b64encode(centroids.tobytes()).decode("ascii"),
            "radii": base64.b64encode(radii.tobytes()).decode("ascii"),
        },
        indent=2,
        sort_keys=True,
    ).encode("utf-8")
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def read_routing_blob(
    path: str | os.PathLike, expected_sha256: str | None = None
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read a routing blob back as ``(payload, centroids, radii)``.

    Verifies the manifest-pinned digest (when given) over the raw file
    bytes before parsing anything, then rebuilds the float64 arrays at
    the payload's recorded shape.  Raises :class:`SerializationError`
    for a missing file, digest mismatch, junk JSON or shape mismatch —
    a manifest that references routing promises it loads.
    """
    blob_path = Path(path)
    try:
        blob = blob_path.read_bytes()
    except FileNotFoundError:
        raise SerializationError(
            f"manifest references a routing blob but none exists at {blob_path}"
        ) from None
    if expected_sha256 is not None:
        digest = hashlib.sha256(blob).hexdigest()
        if digest != expected_sha256:
            raise SerializationError(
                f"routing blob at {blob_path} does not match its manifest "
                f"digest (expected {expected_sha256}, got {digest})"
            )
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"routing blob at {blob_path} is not valid JSON: {exc}"
        ) from exc
    if payload.get("routing_format") != ROUTING_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported routing blob format {payload.get('routing_format')!r}"
        )
    try:
        n_shards = int(payload["n_shards"])
        dim = int(payload["output_dim"])
        centroids = np.frombuffer(
            base64.b64decode(payload["centroids"]), dtype="<f8"
        ).reshape(n_shards, dim)
        radii = np.frombuffer(base64.b64decode(payload["radii"]), dtype="<f8")
    except (KeyError, ValueError) as exc:
        raise SerializationError(
            f"routing blob at {blob_path} is malformed: {exc}"
        ) from exc
    if radii.shape != (n_shards,):
        raise SerializationError(
            f"routing blob at {blob_path} carries {radii.shape[0]} radii "
            f"for {n_shards} shards"
        )
    return payload, centroids.astype(np.float64), radii.astype(np.float64)


# -- the store directory layout ------------------------------------------------

MANIFEST_NAME = "manifest.json"
#: Version 2 adds the optional ``routing`` entry (centroid shard
#: routing); version-1 manifests — every pre-routing store — still load.
MANIFEST_VERSION = 2
_SUPPORTED_MANIFEST_VERSIONS = (1, 2)
SHARD_PATTERN = "shard-{:05d}.skb"
GENERATION_PATTERN = "gen-{:05d}"


def read_manifest(path: str | os.PathLike) -> dict:
    """Read and validate a store directory's ``manifest.json``.

    The shared parsing step of the store loader, the maintenance layer
    and the server's generation watcher — all three must agree on what a
    well-formed manifest is.  Raises ``FileNotFoundError`` when no
    manifest exists and :class:`SerializationError` for junk or an
    unsupported version.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no store manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"manifest at {manifest_path} is not valid JSON: {exc}"
        ) from exc
    if manifest.get("manifest_version") not in _SUPPORTED_MANIFEST_VERSIONS:
        raise SerializationError(
            f"unsupported manifest version {manifest.get('manifest_version')!r}"
        )
    return manifest


def shard_dir(root: str | os.PathLike, manifest: dict) -> Path:
    """A manifest's ``gen-NNNNN`` shard directory (``root`` for a flat,
    pre-generation layout, whose manifest names none)."""
    return Path(root) / manifest.get("shards_dir", "")


def write_manifest(root: str | os.PathLike, manifest: dict) -> None:
    """Atomically replace ``root/manifest.json``: the one manifest writer."""
    tmp = Path(root) / f".{MANIFEST_NAME}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    os.replace(tmp, Path(root) / MANIFEST_NAME)


def publish(root: str | os.PathLike, generation: int, write) -> tuple[int, list[str]]:
    """Publish the next generation of the store at ``root``; the one protocol.

    ``write(staging, N)`` fills ``root/.gen-N.staging-<pid>/`` and
    returns the manifest's store facts; it is renamed to ``gen-N``, the
    manifest is pointed at it, and everything but it and the replaced
    generation (in-flight readers may still map it) is pruned.  ``N`` is
    ``generation`` in a directory without a manifest, else
    ``max(generation, live + 1)``.  A failure leaves the live store
    intact (a failed first publish removes ``root``).  Returns ``(N,
    pruned names)``.
    """
    root = Path(root)
    fresh = not root.exists()
    root.mkdir(parents=True, exist_ok=True)
    live = read_manifest(root) if (root / MANIFEST_NAME).exists() else None
    if live is not None:
        generation = max(generation, int(live.get("generation", 0)) + 1)
    name = GENERATION_PATTERN.format(generation)
    staging = root / f".{name}.staging-{os.getpid()}"
    pruned = []
    try:
        for leftover in (staging, root / name):  # crash orphans in our way
            if leftover.exists():
                shutil.rmtree(leftover)
                pruned.append(leftover.name)
        staging.mkdir()
        facts = write(staging, generation)
        os.replace(staging, root / name)
        write_manifest(
            root,
            {
                **facts,
                "manifest_version": MANIFEST_VERSION,
                "generation": generation,
                "shards_dir": name,
            },
        )
    except BaseException:
        shutil.rmtree(root if fresh else staging, ignore_errors=True)
        raise
    previous = "" if live is None else live.get("shards_dir", "")
    for leftover in sorted(root.glob(".gen-*.staging-*")) + sorted(root.glob("gen-*")):
        if leftover.is_dir() and leftover.name not in (name, previous):
            shutil.rmtree(leftover, ignore_errors=True)
            pruned.append(leftover.name)
    if previous:
        for stale in sorted(root.glob("shard-*.skb")):
            stale.unlink()
            pruned.append(stale.name)
    return generation, pruned
