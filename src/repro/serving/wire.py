"""Wire codec: versioned JSON envelopes for queries and results.

The network frontend (:mod:`repro.serving.server` /
:mod:`repro.serving.client`) speaks this format; it is also suitable
for logging or replaying query workloads.  One envelope shape covers
everything::

    {"format": "repro.serving.wire", "version": 2,
     "kind": "query" | "result" | "error", ...}

* **Queries** carry their kind tag (``top_k`` / ``radius`` / ``cross``
  / ``pairwise`` / ``norms``) plus kind-specific parameters.  Released
  sketch payloads are embedded as the *version-3 binary container* of
  :mod:`repro.serving.serialization` (base64 inside the JSON), so the
  float64 values cross the wire bit-exactly and with their digests —
  the JSON layer never touches a sketch value.  A container whose
  header records a storage other than ``f8`` is rejected.
* **Results** carry the payload in a shape that round-trips exactly:
  labels use the typed JSON encoding of
  :func:`~repro.serving.serialization.encode_label` (integer labels
  stay integers — the store-persistence lesson applies to the wire
  too), scalar estimates ride as JSON numbers (Python's shortest-repr
  float serialisation round-trips every finite double exactly; the
  rare non-finite scalar is hex-tagged so the output stays RFC 8259
  JSON), and matrix payloads ride as base64 raw little-endian float64
  — bit-exact including non-finite values.
* **Errors** carry the server-side exception type and message, so a
  remote backend surfaces the *same* exception class a local
  :meth:`~repro.serving.service.DistanceService.execute` would raise.

Anything malformed — not JSON, wrong ``format`` tag, an unknown kind,
a truncated embedded blob — raises :class:`WireError`.  A version
other than :data:`WIRE_VERSION` is rejected up front: the envelope is
versioned precisely so future revisions can evolve the schema without
old peers misreading it (version 2 moved releases to container v3).
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import json
import math

import numpy as np

from repro.core.sketch import PrivateSketch, SketchBatch
from repro.serving.queries import (
    QUERY_TYPES,
    CrossQuery,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    RoutingSpec,
    TopKQuery,
)
from repro.serving.serialization import (
    SerializationError,
    batch_raw_from_bytes,
    batch_to_bytes,
    decode_label,
    encode_label,
)

WIRE_FORMAT = "repro.serving.wire"
WIRE_VERSION = 2


class WireError(ValueError):
    """Raised when a wire envelope is malformed or its version unknown."""


_QUERY_BY_KIND = {cls.kind: cls for cls in QUERY_TYPES}


# -- releases (sketches / batches) ride as the v3 binary container -------------


def _encode_release(release) -> dict:
    if isinstance(release, PrivateSketch):
        batch = SketchBatch.from_sketches([release])
        return {"as": "sketch", "v3": _b64(batch_to_bytes(batch))}
    if isinstance(release, SketchBatch):
        return {"as": "batch", "v3": _b64(batch_to_bytes(release))}
    raise WireError(
        f"query payload must be a PrivateSketch or SketchBatch, "
        f"got {type(release).__name__}"
    )


def _decode_release(encoded) -> object:
    if not isinstance(encoded, dict) or "v3" not in encoded:
        raise WireError("release payload must be an object with a 'v3' blob")
    try:
        info, raw = batch_raw_from_bytes(_unb64(encoded["v3"]))
    except SerializationError as exc:
        raise WireError(f"embedded sketch payload is invalid: {exc}") from exc
    # the container header, not any envelope field, says what the values
    # are: rounded f4/f2/int8 values are not the released sketch
    if info.storage != "f8":
        raise WireError(
            f"this build only decodes f8 sketch payloads, got storage {info.storage!r}"
        )
    batch = dataclasses.replace(
        info.meta, values=raw.astype(np.float64), labels=info.labels
    )
    if encoded.get("as") == "sketch":
        if len(batch) != 1:
            raise WireError(
                f"a 'sketch' release must embed exactly one row, got {len(batch)}"
            )
        return batch.row(0)
    return batch


def _dumps(payload) -> bytes:
    # allow_nan=False guarantees RFC 8259 output (json would otherwise
    # emit bare NaN/Infinity tokens that non-Python parsers reject);
    # non-finite scalars must go through _encode_float instead
    return json.dumps(payload, sort_keys=True, allow_nan=False).encode("utf-8")


def _encode_float(value) -> object:
    """A JSON-safe exact float, sharing the label codec's hex tagging.

    Finite doubles ride as JSON numbers (shortest-repr round-trips them
    exactly); the rare non-finite scalar reuses
    :func:`~repro.serving.serialization.encode_label`'s ``f8`` tag so
    there is exactly one strict-JSON encoding of exact doubles.
    """
    return encode_label(float(value))


def _decode_float(encoded) -> float:
    try:
        return float(decode_label(encoded))
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed float payload {encoded!r}") from exc


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text) -> bytes:
    if not isinstance(text, str):
        raise WireError(f"expected a base64 string, got {type(text).__name__}")
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError) as exc:
        raise WireError(f"invalid base64 payload: {exc}") from exc


def _encode_array(values: np.ndarray) -> dict:
    values = np.ascontiguousarray(values, dtype="<f8")
    return {"shape": list(values.shape), "f8": _b64(values.tobytes())}


def _decode_array(encoded) -> np.ndarray:
    if not isinstance(encoded, dict) or "f8" not in encoded or "shape" not in encoded:
        raise WireError("array payload must carry 'shape' and 'f8' fields")
    try:
        shape = tuple(int(n) for n in encoded["shape"])
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed array shape {encoded['shape']!r}") from exc
    if any(n < 0 for n in shape):
        # negative pairs can fool the product check below and reach
        # reshape(), which would raise a raw numpy error instead of ours
        raise WireError(f"malformed array shape {shape!r}")
    flat = np.frombuffer(_unb64(encoded["f8"]), dtype="<f8")
    # math.prod is arbitrary-precision: an int64 product could be wrapped
    # to a small value by absurd dimensions and sneak past this check
    expected = math.prod(shape)
    if flat.size != expected:
        raise WireError(
            f"array payload has {flat.size} values for shape {shape}"
        )
    return flat.astype(np.float64, copy=True).reshape(shape)


# -- queries -------------------------------------------------------------------


def _query_body(query) -> dict:
    if type(query) not in QUERY_TYPES:
        # mirror DistanceService.execute exactly — including rejecting
        # subclasses, whose extra state would silently vanish on the
        # wire — so local and remote misuse raise the same TypeError
        raise TypeError(
            f"execute() takes a typed query "
            f"(one of {[t.__name__ for t in QUERY_TYPES]}), "
            f"got {type(query).__name__}"
        )
    if isinstance(query, TopKQuery):
        body = {"k": query.k, "release": _encode_release(query.queries)}
        if query.routing is not None:
            body["routing"] = {"nprobe": query.routing.nprobe}
        return body
    if isinstance(query, RadiusQuery):
        body = {
            "radius_sq": _encode_float(query.radius_sq),  # inf is a legal radius
            "release": _encode_release(query.query),
        }
        if query.routing is not None:
            body["routing"] = {"nprobe": query.routing.nprobe}
        return body
    if isinstance(query, CrossQuery):
        return {"release": _encode_release(query.queries)}
    if isinstance(query, PairwiseQuery):
        return {"indices": list(query.indices)}
    return {}  # NormsQuery carries no parameters


def _query_envelope(query) -> dict:
    body = _query_body(query)  # validates the type before .kind is read
    envelope = {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "kind": "query",
        "query": query.kind,
    }
    envelope.update(body)
    return envelope


def encode_query(query) -> bytes:
    """Serialise one typed query into a versioned JSON envelope."""
    return _dumps(_query_envelope(query))


def encode_queries(queries) -> bytes:
    """Serialise a sequence of typed queries as a JSON array of envelopes."""
    return _dumps([_query_envelope(query) for query in queries])


def decode_query(blob: bytes):
    """Inverse of :func:`encode_query`; validates every layer."""
    return _parse_query(_open_envelope(blob, "query"))


def decode_queries(blob: bytes) -> list:
    """Inverse of :func:`encode_queries`."""
    envelopes = _load_envelope_json(blob)
    if not isinstance(envelopes, list):
        raise WireError("a query batch must be a JSON array of envelopes")
    return [_parse_query(_check_envelope(env, "query")) for env in envelopes]


def _decode_routing(spec) -> RoutingSpec | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise WireError(f"malformed routing spec {spec!r}: expected an object")
    # RoutingSpec validates nprobe itself; a bad value raises ValueError
    # from the constructor, the same failure a local caller would see
    return RoutingSpec(nprobe=spec.get("nprobe"))


def _parse_query(envelope: dict):
    kind = envelope.get("query")
    cls = _QUERY_BY_KIND.get(kind)
    if cls is None:
        raise WireError(
            f"unknown query kind {kind!r} "
            f"(this build answers {sorted(_QUERY_BY_KIND)})"
        )
    try:
        if cls is TopKQuery:
            return TopKQuery(
                queries=_decode_release(envelope["release"]),
                k=envelope["k"],
                routing=_decode_routing(envelope.get("routing")),
            )
        if cls is RadiusQuery:
            return RadiusQuery(
                query=_decode_release(envelope["release"]),
                radius_sq=_decode_float(envelope["radius_sq"]),
                routing=_decode_routing(envelope.get("routing")),
            )
        if cls is CrossQuery:
            return CrossQuery(queries=_decode_release(envelope["release"]))
        if cls is PairwiseQuery:
            return PairwiseQuery(indices=tuple(envelope["indices"]))
        return NormsQuery()
    except KeyError as exc:
        raise WireError(f"query envelope is missing required field {exc}") from None


# -- results -------------------------------------------------------------------


def _encode_ranking(ranking) -> list:
    return [[encode_label(label), _encode_float(est)] for label, est in ranking]


def _decode_ranking(encoded) -> list:
    try:
        return [(decode_label(label), _decode_float(est)) for label, est in encoded]
    except (TypeError, ValueError) as exc:
        raise WireError(f"malformed ranking payload: {exc}") from exc


def _result_envelope(result: QueryResult, query) -> dict:
    kind = query if isinstance(query, str) else query.kind
    if kind == "top_k":
        payload = [_encode_ranking(ranking) for ranking in result.payload]
    elif kind == "radius":
        payload = _encode_ranking(result.payload)
    elif kind in ("cross", "pairwise", "norms"):
        payload = _encode_array(result.payload)
    else:
        raise WireError(f"unknown query kind {kind!r}")
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "kind": "result",
        "query": kind,
        "payload": payload,
        "stats": result.stats.as_dict(),
    }


def encode_result(result: QueryResult, query) -> bytes:
    """Serialise one :class:`QueryResult` for the query that produced it.

    The query (or its kind tag) decides the payload schema; the stats
    ride verbatim so remote clients see the server-side counters.
    """
    return _dumps(_result_envelope(result, query))


def encode_results(results, queries) -> bytes:
    """Serialise parallel sequences of results and their queries."""
    return _dumps([_result_envelope(r, q) for r, q in zip(results, queries)])


def decode_result(blob: bytes) -> QueryResult:
    """Inverse of :func:`encode_result` (self-describing: no query needed)."""
    return _parse_result(_open_envelope(blob, "result"))


def decode_results(blob: bytes) -> list[QueryResult]:
    """Inverse of :func:`encode_results`."""
    envelopes = _load_envelope_json(blob)
    if not isinstance(envelopes, list):
        raise WireError("a result batch must be a JSON array of envelopes")
    return [_parse_result(_check_envelope(env, "result")) for env in envelopes]


def _parse_result(envelope: dict) -> QueryResult:
    kind = envelope.get("query")
    try:
        payload = envelope["payload"]
        stats = envelope["stats"]
    except KeyError as exc:
        raise WireError(f"result envelope is missing required field {exc}") from None
    if kind == "top_k":
        if not isinstance(payload, list):
            raise WireError("top_k payload must be a list of rankings")
        decoded = [_decode_ranking(ranking) for ranking in payload]
    elif kind == "radius":
        decoded = _decode_ranking(payload)
    elif kind in ("cross", "pairwise", "norms"):
        decoded = _decode_array(payload)
    else:
        raise WireError(f"unknown query kind {kind!r}")
    return QueryResult(payload=decoded, stats=_decode_stats(stats))


def _decode_stats(encoded) -> QueryStats:
    if not isinstance(encoded, dict):
        raise WireError("result stats must be an object")
    known = {field: encoded[field] for field in encoded if field in _STATS_FIELDS}
    try:
        return QueryStats(**known)
    except TypeError as exc:  # pragma: no cover - defensive
        raise WireError(f"malformed stats payload: {exc}") from exc


_STATS_FIELDS = frozenset(QueryStats.__dataclass_fields__)


# -- errors --------------------------------------------------------------------

#: Exception classes a server is allowed to transport; anything else
#: degrades to ValueError on the client (never arbitrary class lookup).
#: ``ConnectionError`` rides along for the router topology: a router
#: server whose *backend* store server is unreachable reports the
#: failure as HTTP 502 with this envelope, so the outer client's
#: ConnectionError names the actual dead backend instead of a generic
#: internal error.
_ERROR_TYPES = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "IndexError": IndexError,
    "WireError": WireError,
    "ConnectionError": ConnectionError,
}


def encode_error(exc: BaseException) -> bytes:
    """Serialise an exception so the client can re-raise its class."""
    name = type(exc).__name__
    if name not in _ERROR_TYPES:
        name = "ValueError"
    envelope = {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "kind": "error",
        "error": name,
        "message": str(exc),
    }
    return _dumps(envelope)


def decode_error(blob: bytes) -> BaseException:
    """Rebuild the transported exception (always from the allowlist)."""
    envelope = _open_envelope(blob, "error")
    cls = _ERROR_TYPES.get(envelope.get("error"), ValueError)
    return cls(envelope.get("message", "remote error"))


# -- the envelope itself -------------------------------------------------------


def _load_envelope_json(blob: bytes):
    try:
        return json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"envelope is not valid JSON: {exc}") from exc


def _check_envelope(envelope, expected_kind: str) -> dict:
    if not isinstance(envelope, dict):
        raise WireError("envelope must be a JSON object")
    if envelope.get("format") != WIRE_FORMAT:
        raise WireError(
            f"not a {WIRE_FORMAT} envelope (format tag {envelope.get('format')!r})"
        )
    version = envelope.get("version")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(this build speaks version {WIRE_VERSION})"
        )
    kind = envelope.get("kind")
    if kind != expected_kind:
        raise WireError(f"expected a {expected_kind} envelope, got {kind!r}")
    return envelope


def _open_envelope(blob: bytes, expected_kind: str) -> dict:
    return _check_envelope(_load_envelope_json(blob), expected_kind)
