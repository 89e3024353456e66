"""Property tests for the wire codec: exact round trips + rejection paths.

The wire contract is *exactness*: a query that crosses the wire and
comes back must be indistinguishable from the original — float64 values
bit-for-bit (they ride as raw little-endian float64 under one digest),
label types preserved (the ``encode_label``/``decode_label`` lesson
from the store persistence work), parameters equal.  Hypothesis drives the shapes;
the rejection tests pin every malformed-envelope and version-mismatch
path to :class:`~repro.serving.wire.WireError`.
"""

import base64
import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketch, PrivateSketcher, SketchConfig
from repro.serving import (
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    RouterService,
    ShardedSketchStore,
    SketchQueryServer,
    serialization,
    wire,
)
from repro.serving.queries import (
    CrossQuery,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    TopKQuery,
)
from repro.serving.serialization import batch_to_bytes, encode_label
from repro.serving.wire import WireError

_CONFIG = SketchConfig(input_dim=64, epsilon=2.0, output_dim=32, sparsity=4, seed=5)
_TEMPLATE = PrivateSketcher(_CONFIG).sketch_batch(
    np.random.default_rng(0).standard_normal((1, 64)), noise_rng=0
)[0:0]


# -- strategies ----------------------------------------------------------------

_scalar_labels = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
_labels = st.recursive(
    _scalar_labels,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=6,
)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_any_float = st.floats()  # NaN and infinities included: arrays must be bit-exact


def _batch_of(values: np.ndarray, labels=()):
    return dataclasses.replace(
        _TEMPLATE, values=np.atleast_2d(values), labels=tuple(labels)
    )


@st.composite
def batches(draw, max_rows=5):
    n = draw(st.integers(min_value=0, max_value=max_rows))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    values = np.random.default_rng(seed).standard_normal((n, 32))
    if n and draw(st.booleans()):  # sprinkle non-finite payload values
        values[draw(st.integers(0, n - 1)), draw(st.integers(0, 31))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 1e-308])
        )
    labels = draw(
        st.one_of(st.just(()), st.lists(_labels, min_size=n, max_size=n))
    )
    return _batch_of(values.reshape(n, 32), labels)


@st.composite
def sketches(draw):
    batch = draw(batches(max_rows=1))
    if len(batch) == 0:
        batch = _batch_of(np.zeros((1, 32)), ("row",))
    return batch.row(0)


def _assert_release_equal(a, b):
    assert type(a) is type(b)
    np.testing.assert_array_equal(
        np.atleast_2d(a.values), np.atleast_2d(b.values)
    )  # NaN-safe and exact
    assert a.values.tobytes() == b.values.tobytes()  # bit-for-bit, signs of 0 too
    assert a.config_digest == b.config_digest
    assert a.noise_spec == b.noise_spec
    assert a.noise_second_moment == b.noise_second_moment
    if hasattr(a, "labels"):
        assert a.labels == b.labels
        for ours, theirs in zip(a.labels, b.labels):
            assert type(ours) is type(theirs)
    else:
        assert a.label == b.label


# -- query round trips ---------------------------------------------------------


class TestQueryRoundTrip:
    @given(batch=batches(), k=st.integers(min_value=1, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_top_k(self, batch, k):
        back = wire.decode_query(wire.encode_query(TopKQuery(queries=batch, k=k)))
        assert isinstance(back, TopKQuery)
        assert back.k == k
        _assert_release_equal(back.queries, batch)

    @given(sketch=sketches(), radius_sq=st.floats(min_value=0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_radius(self, sketch, radius_sq):
        query = RadiusQuery(query=sketch, radius_sq=radius_sq)
        back = wire.decode_query(wire.encode_query(query))
        assert isinstance(back, RadiusQuery)
        assert back.radius_sq == radius_sq  # shortest-repr floats are exact
        _assert_release_equal(back.query, sketch)

    @given(batch=batches())
    @settings(max_examples=25, deadline=None)
    def test_cross(self, batch):
        back = wire.decode_query(wire.encode_query(CrossQuery(queries=batch)))
        assert isinstance(back, CrossQuery)
        _assert_release_equal(back.queries, batch)

    @given(indices=st.lists(st.integers(-(2**31), 2**31), max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_pairwise_and_norms(self, indices):
        back = wire.decode_query(
            wire.encode_query(PairwiseQuery(indices=tuple(indices)))
        )
        assert isinstance(back, PairwiseQuery)
        assert back.indices == tuple(indices)
        assert isinstance(wire.decode_query(wire.encode_query(NormsQuery())), NormsQuery)

    @given(queries=st.lists(st.integers(0, 2), max_size=4))
    @settings(max_examples=15, deadline=None)
    def test_query_batches(self, queries):
        pool = [NormsQuery(), PairwiseQuery(indices=(1, 2)), TopKQuery(queries=_TEMPLATE, k=3)]
        typed = [pool[i] for i in queries]
        back = wire.decode_queries(wire.encode_queries(typed))
        assert [type(q) for q in back] == [type(q) for q in typed]


# -- result round trips --------------------------------------------------------

_stats = st.builds(
    QueryStats,
    shards_visited=st.integers(0, 100),
    shards_pruned=st.integers(0, 100),
    rows_scanned=st.integers(0, 10**6),
    rows_total=st.integers(0, 10**6),
    elapsed_seconds=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
_rankings = st.lists(st.tuples(_labels, _finite), max_size=6)


class TestResultRoundTrip:
    @given(rankings=st.lists(_rankings, max_size=4), stats=_stats)
    @settings(max_examples=40, deadline=None)
    def test_top_k_exact_including_label_types(self, rankings, stats):
        result = QueryResult(payload=rankings, stats=stats)
        back = wire.decode_result(wire.encode_result(result, "top_k"))
        assert back.stats == stats
        assert len(back.payload) == len(rankings)
        for ours, theirs in zip(rankings, back.payload):
            assert theirs == [(label, float(est)) for label, est in ours]
            for (label_a, est_a), (label_b, est_b) in zip(ours, theirs):
                assert type(label_b) is type(label_a)  # ints stay ints, etc.
                assert est_b == float(est_a)  # exact float equality

    @given(hits=_rankings, stats=_stats)
    @settings(max_examples=40, deadline=None)
    def test_radius(self, hits, stats):
        back = wire.decode_result(
            wire.encode_result(QueryResult(payload=hits, stats=stats), "radius")
        )
        assert back.payload == [(label, float(est)) for label, est in hits]
        assert back.stats == stats

    @given(
        rows=st.integers(0, 5),
        cols=st.integers(0, 5),
        seed=st.integers(0, 2**31),
        kind=st.sampled_from(["cross", "pairwise", "norms"]),
        special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matrix_payloads_bit_exact(self, rows, cols, seed, kind, special):
        values = np.random.default_rng(seed).standard_normal((rows, cols))
        flat = values.ravel()
        for i, value in enumerate(special[: flat.size]):
            flat[i] = value
        result = QueryResult(payload=values, stats=QueryStats())
        back = wire.decode_result(wire.encode_result(result, kind))
        assert back.payload.shape == values.shape
        assert back.payload.tobytes() == values.tobytes()  # NaN bit patterns too

    def test_non_finite_ranking_estimates_stay_valid_json(self):
        # bare NaN/Infinity tokens are not RFC 8259; non-finite scalars
        # must cross hex-tagged so strict parsers accept the envelope
        hits = [(0, float("nan")), (1, float("inf")), (2, -0.0)]
        blob = wire.encode_result(QueryResult(payload=hits, stats=QueryStats()), "radius")
        json.loads(blob.decode("utf-8"), parse_constant=_reject_constant)  # strict
        back = wire.decode_result(blob).payload
        assert np.isnan(back[0][1]) and back[1][1] == float("inf")
        assert str(back[2][1]) == "-0.0"  # sign of zero survives

    def test_infinite_radius_stays_valid_json(self):
        sketch = _batch_of(np.zeros((1, 32)), ("r",)).row(0)
        blob = wire.encode_query(RadiusQuery(query=sketch, radius_sq=float("inf")))
        json.loads(blob.decode("utf-8"), parse_constant=_reject_constant)
        assert wire.decode_query(blob).radius_sq == float("inf")

    def test_result_batches(self):
        results = [
            QueryResult(payload=[[("a", 1.0)]], stats=QueryStats(shards_visited=1)),
            QueryResult(payload=np.arange(4.0).reshape(2, 2), stats=QueryStats()),
        ]
        back = wire.decode_results(wire.encode_results(results, ["top_k", "cross"]))
        assert back[0].payload == results[0].payload
        assert back[0].stats == results[0].stats
        np.testing.assert_array_equal(back[1].payload, results[1].payload)


# -- rejection paths -----------------------------------------------------------


def _reject_constant(name):  # json hook: NaN/Infinity tokens are a codec bug
    raise AssertionError(f"non-RFC-8259 constant {name!r} on the wire")


def _envelope(query) -> dict:
    return json.loads(wire.encode_query(query).decode("utf-8"))


def _valid_query_envelope() -> dict:
    return _envelope(NormsQuery())


class TestRejection:
    def test_not_json(self):
        with pytest.raises(WireError, match="JSON"):
            wire.decode_query(b"\xff\x00 definitely not json")

    def test_json_but_not_an_object(self):
        with pytest.raises(WireError, match="object"):
            wire.decode_query(b"42")

    def test_wrong_format_tag(self):
        envelope = _valid_query_envelope()
        envelope["format"] = "someone-else's-protocol"
        with pytest.raises(WireError, match="format tag"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_version_mismatch_rejected_up_front(self):
        envelope = _valid_query_envelope()
        envelope["version"] = wire.WIRE_VERSION + 1
        with pytest.raises(WireError, match="unsupported wire version"):
            wire.decode_query(json.dumps(envelope).encode())
        envelope["version"] = str(wire.WIRE_VERSION)  # right number, wrong type
        with pytest.raises(WireError, match="unsupported wire version"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_kind_mismatch(self):
        with pytest.raises(WireError, match="expected a result envelope"):
            wire.decode_result(wire.encode_query(NormsQuery()))
        with pytest.raises(WireError, match="expected a query envelope"):
            wire.decode_query(
                wire.encode_result(QueryResult(payload=[], stats=QueryStats()), "radius")
            )

    def test_unknown_query_kind(self):
        envelope = _valid_query_envelope()
        envelope["query"] = "nearest_enemy"
        with pytest.raises(WireError, match="unknown query kind"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_missing_required_field(self):
        envelope = json.loads(
            wire.encode_query(TopKQuery(queries=_TEMPLATE, k=2)).decode("utf-8")
        )
        del envelope["k"]
        with pytest.raises(WireError, match="missing required field"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_bad_base64_release(self):
        envelope = _envelope(CrossQuery(queries=_TEMPLATE))
        envelope["release"]["f8"] = "!!! not base64 !!!"
        with pytest.raises(WireError, match="base64"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_corrupted_embedded_blob(self):
        # one digest covers the values and every other release field
        batch = _batch_of(np.random.default_rng(2).standard_normal((1, 32)), ("a",))
        envelope = _envelope(CrossQuery(queries=batch))

        def flip_a_value_byte(release):
            blob = bytearray(base64.b64decode(release["f8"]))
            blob[len(blob) // 2] ^= 0xFF
            release["f8"] = base64.b64encode(bytes(blob)).decode()

        def as_a_sketch(release):  # same row and label, other form
            release.update({"as": "sketch", "shape": release["shape"][1:]})

        config = envelope["release"]["config"]
        tamperings = [
            flip_a_value_byte,
            lambda r: r["config"].update(noise_second_moment=2 * config["noise_second_moment"]),
            lambda r: r["config"].update(epsilon=config["epsilon"] / 2),
            lambda r: r["config"].update(delta=0.5),
            lambda r: r["config"]["noise_spec"].update(name="gaussian"),
            lambda r: r["config"].update(perturbation="input"),
            lambda r: r["config"].update(input_dim=config["input_dim"] + 1),
            lambda r: r["config"].update(config_digest="0" * 16),
            lambda r: r.update(labels=["b"]),
            as_a_sketch,
        ]
        for tamper in tamperings:
            tampered = copy.deepcopy(envelope)
            tamper(tampered["release"])
            assert tampered != envelope
            with pytest.raises(WireError, match="digest mismatch"):
                wire.decode_query(json.dumps(tampered).encode())
        wire.decode_query(json.dumps(envelope).encode())  # the original decodes

    @pytest.mark.parametrize("storage", ["f4", "f2", "int8"])
    def test_quantised_release_container_rejected(self, tmp_path, storage):
        # a query sketch is a release: rounded values are not the
        # released ones, whatever the envelope around them claims
        from repro.serving.serialization import StreamingBatchWriter
        from repro.serving.storage import StorageSpec

        spec = StorageSpec.parse(storage)
        values = np.random.default_rng(1).standard_normal((1, 32))
        scale = spec.int8_step(float(np.abs(values).max())) if spec.quantised else None
        codes = np.ascontiguousarray(spec.encode(values, scale))
        path = tmp_path / "release.skb"
        with StreamingBatchWriter(path, _TEMPLATE, storage=spec, scale=scale) as writer:
            writer.append(codes)
            writer.commit()
        envelope = _envelope(CrossQuery(queries=_batch_of(values)))
        del envelope["release"]["f8"]
        for key, blob in ((storage, codes.tobytes()), ("v3", path.read_bytes())):
            moved = copy.deepcopy(envelope)
            moved["release"][key] = base64.b64encode(blob).decode()
            with pytest.raises(WireError, match="'f8'"):
                wire.decode_query(json.dumps(moved).encode())

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_container_versions_rejected(self, version):
        # versions up to 2 embedded each release as a storage container
        envelope = _envelope(CrossQuery(queries=_TEMPLATE))
        envelope["version"] = version
        envelope["release"] = {
            "as": "batch",
            "v3": base64.b64encode(batch_to_bytes(_TEMPLATE)).decode(),
        }
        with pytest.raises(WireError, match=f"unsupported wire version {version}"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_query_batch_must_be_array(self):
        with pytest.raises(WireError, match="array"):
            wire.decode_queries(wire.encode_query(NormsQuery()))

    def test_malformed_ranking_payload(self):
        blob = wire.encode_result(
            QueryResult(payload=[("a", 1.0)], stats=QueryStats()), "radius"
        )
        envelope = json.loads(blob.decode("utf-8"))
        envelope["payload"] = [["only-a-label"]]
        with pytest.raises(WireError, match="ranking"):
            wire.decode_result(json.dumps(envelope).encode())

    def test_malformed_array_payload(self):
        blob = wire.encode_result(
            QueryResult(payload=np.zeros((2, 2)), stats=QueryStats()), "cross"
        )
        envelope = json.loads(blob.decode("utf-8"))
        envelope["payload"]["shape"] = [3, 3]  # lies about the byte count
        with pytest.raises(WireError, match="shape"):
            wire.decode_result(json.dumps(envelope).encode())
        # non-numeric / non-iterable / negative-product / int64-overflow shapes
        for bad_shape in (["x"], 5, [-1, -4], [2**32, 2**32]):
            envelope["payload"]["shape"] = bad_shape
            with pytest.raises(WireError, match="shape"):
                wire.decode_result(json.dumps(envelope).encode())

    def test_invalid_query_parameters_fail_at_decode(self):
        envelope = json.loads(
            wire.encode_query(TopKQuery(queries=_TEMPLATE, k=2)).decode("utf-8")
        )
        envelope["k"] = 0
        with pytest.raises(ValueError, match="top"):
            wire.decode_query(json.dumps(envelope).encode())


class TestErrorEnvelopes:
    @pytest.mark.parametrize("exc", [ValueError("v"), TypeError("t"), IndexError("i")])
    def test_class_and_message_survive(self, exc):
        back = wire.decode_error(wire.encode_error(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)

    def test_unknown_class_degrades_to_value_error(self):
        back = wire.decode_error(wire.encode_error(RuntimeError("boom")))
        assert type(back) is ValueError
        assert str(back) == "boom"


# -- version 3 releases --------------------------------------------------------

_TEMPLATES = [
    _TEMPLATE,
    PrivateSketcher(
        SketchConfig(input_dim=48, epsilon=1.5, delta=1e-5, output_dim=16,
                     sparsity=4, noise="gaussian", seed=9)
    ).sketch_batch(np.zeros((1, 48)), noise_rng=0)[0:0],
]
# labels of every type a release may carry, numpy scalars and
# non-finite floats included (those two decode equal, not identical)
_typed_labels = st.one_of(
    _labels,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


@st.composite
def releases(draw):
    template = draw(st.sampled_from(_TEMPLATES))
    k = template.output_dim
    n = draw(st.integers(min_value=0, max_value=5))
    as_sketch = draw(st.booleans())
    if as_sketch:
        n = 1
    values = np.random.default_rng(draw(st.integers(0, 2**31))).standard_normal((n, k))
    flat = values.ravel()
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=4)):
        if flat.size:
            flat[draw(st.integers(0, flat.size - 1))] = value
    if as_sketch:
        sketch = dataclasses.replace(template, values=values, labels=("x",)).row(0)
        return dataclasses.replace(sketch, label=draw(_typed_labels))
    labels = draw(st.one_of(st.just(()), st.lists(_typed_labels, min_size=n, max_size=n)))
    return dataclasses.replace(template, values=values, labels=tuple(labels))


def _release_labels(release) -> list:
    labels = [release.label] if isinstance(release, PrivateSketch) else release.labels
    return [encode_label(label) for label in labels]  # NaN-safe equality


class TestReleaseVersion3:
    @given(release=releases(), k=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact_and_deterministic(self, release, k):
        query = TopKQuery(queries=release, k=k)
        blob = wire.encode_query(query)
        assert wire.encode_query(query) == blob  # the server's cache key
        back = wire.decode_query(blob).queries
        assert type(back) is type(release)
        assert back.values.dtype == np.float64
        assert back.values.shape == np.shape(release.values)
        assert back.values.tobytes() == np.asarray(release.values, dtype=np.float64).tobytes()
        for field in ("input_dim", "output_dim", "perturbation", "noise_spec",
                      "noise_second_moment", "guarantee", "config_digest"):
            assert getattr(back, field) == getattr(release, field)
        assert _release_labels(back) == _release_labels(release)
        release_json = json.loads(blob.decode("utf-8"))["release"]
        assert set(release_json) == {"as", "config", "labels", "shape", "f8", "sha256"}
        json.loads(blob.decode("utf-8"), parse_constant=_reject_constant)  # strict

    def test_shape_must_match_output_dim(self):
        envelope = _envelope(CrossQuery(queries=_batch_of(np.zeros((2, 32)))))
        envelope["release"]["shape"] = [4, 16]  # the same 64 values
        with pytest.raises(WireError, match="output_dim"):
            wire.decode_query(json.dumps(envelope).encode())
        sketch = _batch_of(np.zeros((1, 32)), ("r",)).row(0)
        envelope = _envelope(CrossQuery(queries=sketch))
        envelope["release"]["shape"] = [1, 32]  # a sketch is one row of shape [k]
        with pytest.raises(WireError, match="shape"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_label_count_must_match_the_rows(self):
        batch = _batch_of(np.zeros((3, 32)), ("a", "b", "c"))
        envelope = _envelope(CrossQuery(queries=batch))
        envelope["release"]["labels"] = ["a", "b"]
        with pytest.raises(WireError, match="3 rows carries 2 labels"):
            wire.decode_query(json.dumps(envelope).encode())
        # an unlabelled batch is fine; a sketch always carries one label
        envelope["release"]["labels"] = []
        with pytest.raises(WireError, match="digest"):  # only the digest objects
            wire.decode_query(json.dumps(envelope).encode())
        envelope = _envelope(CrossQuery(queries=batch.row(0)))
        for labels in ([], ["a", "b"]):
            envelope["release"]["labels"] = labels
            with pytest.raises(WireError, match="sketch release of 1 rows"):
                wire.decode_query(json.dumps(envelope).encode())

    @pytest.mark.parametrize("cut", [1, 7, 8])
    def test_truncated_value_blob(self, cut):
        envelope = _envelope(CrossQuery(queries=_batch_of(np.ones((2, 32)))))
        blob = base64.b64decode(envelope["release"]["f8"])
        envelope["release"]["f8"] = base64.b64encode(blob[:-cut]).decode()
        with pytest.raises(WireError, match="bytes for shape"):
            wire.decode_query(json.dumps(envelope).encode())

    @pytest.mark.parametrize("form", ["matrix", ["batch"], None])
    def test_unknown_release_form(self, form):
        envelope = _envelope(CrossQuery(queries=_TEMPLATE))
        envelope["release"]["as"] = form
        with pytest.raises(WireError, match="'sketch' of shape"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_bare_non_finite_tokens_are_refused(self):
        # the digest is recomputed over the parsed fields: a NaN there
        # must fail as a WireError, not as the JSON writer's ValueError
        blob = wire.encode_query(CrossQuery(queries=_TEMPLATE))
        tampered = blob.replace(b'"delta": 0.0', b'"delta": NaN')
        assert tampered != blob
        with pytest.raises(WireError, match="bare NaN"):
            wire.decode_query(tampered)
        result = wire.encode_result(QueryResult(payload=[], stats=QueryStats()), "radius")
        tampered = result.replace(b'"elapsed_seconds": 0.0', b'"elapsed_seconds": Infinity')
        assert tampered != result
        with pytest.raises(WireError, match="bare Infinity"):
            wire.decode_result(tampered)

    @pytest.mark.parametrize("field", ["as", "config", "labels", "shape", "sha256"])
    def test_missing_release_field(self, field):
        envelope = _envelope(CrossQuery(queries=_TEMPLATE))
        del envelope["release"][field]
        with pytest.raises(WireError, match="missing required field"):
            wire.decode_query(json.dumps(envelope).encode())


# -- malformed results ---------------------------------------------------------


class TestMalformedResults:
    def test_ragged_value_blob_is_a_wire_error(self):
        # 7 value bytes are not whole float64 values: numpy's own
        # ValueError must not escape as if the query had been refused
        blob = wire.encode_result(
            QueryResult(payload=np.zeros((1, 1)), stats=QueryStats()), "cross"
        )
        envelope = json.loads(blob.decode("utf-8"))
        envelope["payload"]["f8"] = base64.b64encode(b"\0" * 7).decode()
        with pytest.raises(WireError, match="7 bytes"):
            wire.decode_result(json.dumps(envelope).encode())

    @pytest.mark.parametrize(
        "field,value",
        [
            ("shards_visited", "x"),
            ("shards_pruned", 1.5),
            ("shards_routed", True),
            ("rows_scanned", None),
            ("rows_total", [1]),
            ("elapsed_seconds", "0.1"),
            ("elapsed_seconds", False),
        ],
    )
    def test_stats_counters_must_be_numbers(self, field, value):
        blob = wire.encode_result(QueryResult(payload=[], stats=QueryStats()), "radius")
        envelope = json.loads(blob.decode("utf-8"))
        envelope["stats"][field] = value
        with pytest.raises(WireError, match=f"stats payload: {field}="):
            wire.decode_result(json.dumps(envelope).encode())
        envelope["stats"][field] = 3  # an int is a counter and a number of seconds
        assert getattr(wire.decode_result(json.dumps(envelope).encode()).stats, field) == 3


# -- result envelopes: byte-identical to the per-entry encoder ------------------


def _reference_result_envelope(result, kind) -> bytes:
    """A result envelope built the slow way: ``encode_label`` on every
    label, the float codec on every estimate, ``dataclasses.asdict``."""

    def ranking(entries):
        return [[encode_label(label), encode_label(float(est))] for label, est in entries]

    if kind == "top_k":
        payload = [ranking(entries) for entries in result.payload]
    elif kind == "radius":
        payload = ranking(result.payload)
    else:
        values = np.ascontiguousarray(result.payload, dtype="<f8")
        payload = {
            "shape": list(values.shape),
            "f8": base64.b64encode(values.tobytes()).decode("ascii"),
        }
    envelope = {
        "format": wire.WIRE_FORMAT,
        "version": wire.WIRE_VERSION,
        "kind": "result",
        "query": kind,
        "payload": payload,
        "stats": dataclasses.asdict(result.stats),
    }
    return json.dumps(envelope, sort_keys=True, allow_nan=False).encode("utf-8")


_estimates = st.one_of(st.floats(), st.floats().map(np.float64), st.integers(-5, 5))
_typed_rankings = st.lists(st.tuples(_typed_labels, _estimates), max_size=6)


class TestResultEnvelopeBytes:
    @given(rankings=st.lists(_typed_rankings, max_size=3), stats=_stats)
    @settings(max_examples=60, deadline=None)
    def test_rankings(self, rankings, stats):
        top_k = QueryResult(payload=rankings, stats=stats)
        assert wire.encode_result(top_k, "top_k") == _reference_result_envelope(top_k, "top_k")
        hits = QueryResult(payload=rankings[0] if rankings else [], stats=stats)
        assert wire.encode_result(hits, "radius") == _reference_result_envelope(hits, "radius")

    def test_served_results(self):
        sk = PrivateSketcher(_CONFIG)
        rng = np.random.default_rng(4)
        labels = [7, np.int64(8), "nine", (1, "x"), float("nan"), float("inf"), None, True]
        labels = (labels * 3)[:20]
        store = ShardedSketchStore(shard_capacity=6)
        store.add_batch(sk.sketch_batch(rng.standard_normal((20, 64)), noise_rng=1), labels=labels)
        queries = sk.sketch_batch(rng.standard_normal((3, 64)), noise_rng=2)
        cases = [
            TopKQuery(queries=queries, k=20),
            TopKQuery(queries=queries.row(0), k=3),
            RadiusQuery(query=queries.row(1), radius_sq=float("inf")),
            RadiusQuery(query=queries.row(1), radius_sq=0.0),
            CrossQuery(queries=queries),
            PairwiseQuery(indices=(0, 4, -1, 4)),
            PairwiseQuery(indices=()),
            NormsQuery(),
        ]
        with DistanceService(store) as service:
            for query in cases:
                result = service.execute(query)
                expected = _reference_result_envelope(result, query.kind)
                assert wire.encode_result(result, query) == expected
                assert wire.encode_results([result], [query]) == b"[" + expected + b"]"

    @given(
        rows=st.integers(0, 4),
        cols=st.integers(0, 4),
        kind=st.sampled_from(["cross", "pairwise", "norms"]),
        special=st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=3),
        stats=_stats,
    )
    @settings(max_examples=30, deadline=None)
    def test_matrices(self, rows, cols, kind, special, stats):
        values = np.random.default_rng(rows * 5 + cols).standard_normal((rows, cols))
        values.ravel()[: len(special)] = special[: values.size]
        result = QueryResult(payload=values, stats=stats)
        assert wire.encode_result(result, kind) == _reference_result_envelope(result, kind)


# -- the storage container stays off the wire path -----------------------------


def _payload_bits(payload):
    """A payload compared bit for bit: arrays by their bytes, rankings by
    the exact repr of every (label, estimate) pair."""
    if isinstance(payload, np.ndarray):
        return payload.dtype.str, payload.shape, payload.tobytes()
    return repr(payload)


class TestContainerOffTheWirePath:
    def test_every_query_kind_matches_local_execute(self, monkeypatch):
        sk = PrivateSketcher(_CONFIG)
        rng = np.random.default_rng(3)
        batch = sk.sketch_batch(rng.standard_normal((40, 64)), noise_rng=1)
        whole = ShardedSketchStore(shard_capacity=8)
        whole.add_batch(batch, labels=range(40))
        parts = []
        for lo, hi in ((0, 24), (24, 40)):  # split on a shard boundary
            part = ShardedSketchStore(shard_capacity=8)
            part.add_batch(batch[lo:hi], labels=range(lo, hi))
            parts.append(part)
        single = sk.sketch(rng.standard_normal(64), noise_rng=2)
        several = sk.sketch_batch(rng.standard_normal((3, 64)), noise_rng=3)
        queries = [
            TopKQuery(queries=single, k=5),
            TopKQuery(queries=several, k=7),
            RadiusQuery(query=single, radius_sq=float("inf")),
            CrossQuery(queries=several),
            CrossQuery(queries=single),
            PairwiseQuery(indices=(25, 31, -1, 25)),  # within the second part
            NormsQuery(),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a storage container on the wire path")

        for name in ("batch_to_bytes", "batch_raw_from_bytes"):
            monkeypatch.setattr(serialization, name, refuse)
            monkeypatch.setattr(wire, name, refuse, raising=False)

        policy = ExecutionPolicy(workers=1)
        local = DistanceService(whole, policy)
        expected = [_payload_bits(local.execute(q).payload) for q in queries]
        servers = [
            SketchQueryServer(DistanceService(store, policy), port=0).start()
            for store in (whole, *parts)
        ]
        router = RouterService(
            [DistanceClient(s.url) for s in servers[1:]], close_backends=True
        )
        front = SketchQueryServer(router, port=0).start()
        try:
            with DistanceClient(servers[0].url) as direct, DistanceClient(front.url) as routed:
                for backend in (direct, router, routed):
                    got = [_payload_bits(backend.execute(q).payload) for q in queries]
                    assert got == expected
                    many = backend.execute_many(queries)
                    assert [_payload_bits(r.payload) for r in many] == expected
        finally:
            front.close()
            router.close()
            local.close()
            for server in servers:
                server.close()
