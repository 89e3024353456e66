"""Property tests for the wire codec: exact round trips + rejection paths.

The wire contract is *exactness*: a query that crosses the wire and
comes back must be indistinguishable from the original — float64 values
bit-for-bit (they ride in the v3 binary container), label types
preserved (the ``encode_label``/``decode_label`` lesson from the store
persistence work), parameters equal.  Hypothesis drives the shapes;
the rejection tests pin every malformed-envelope and version-mismatch
path to :class:`~repro.serving.wire.WireError`.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import wire
from repro.serving.queries import (
    CrossQuery,
    NormsQuery,
    PairwiseQuery,
    QueryResult,
    QueryStats,
    RadiusQuery,
    TopKQuery,
)
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


def _valid_query_envelope() -> dict:
    return json.loads(wire.encode_query(NormsQuery()).decode("utf-8"))


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
        envelope = json.loads(
            wire.encode_query(CrossQuery(queries=_TEMPLATE)).decode("utf-8")
        )
        envelope["release"]["v3"] = "!!! not base64 !!!"
        with pytest.raises(WireError, match="base64"):
            wire.decode_query(json.dumps(envelope).encode())

    def test_corrupted_embedded_blob(self):
        import base64

        envelope = json.loads(
            wire.encode_query(CrossQuery(queries=_TEMPLATE)).decode("utf-8")
        )
        blob = bytearray(base64.b64decode(envelope["release"]["v3"]))
        blob[len(blob) // 2] ^= 0xFF
        envelope["release"]["v3"] = base64.b64encode(bytes(blob)).decode()
        with pytest.raises(WireError, match="invalid"):
            wire.decode_query(json.dumps(envelope).encode())

    @pytest.mark.parametrize("storage", ["f4", "f2", "int8"])
    def test_quantised_release_container_rejected(self, tmp_path, storage):
        # a query sketch is a release: rounded values are not the
        # released ones, whatever the envelope around them claims
        import base64

        from repro.serving.serialization import StreamingBatchWriter
        from repro.serving.storage import StorageSpec

        spec = StorageSpec.parse(storage)
        values = np.random.default_rng(1).standard_normal((1, 32))
        scale = spec.int8_step(float(np.abs(values).max())) if spec.quantised else None
        path = tmp_path / "release.skb"
        with StreamingBatchWriter(path, _TEMPLATE, storage=spec, scale=scale) as writer:
            writer.append(spec.encode(values, scale))
            writer.commit()
        envelope = json.loads(
            wire.encode_query(CrossQuery(queries=_batch_of(values))).decode("utf-8")
        )
        (key,) = [k for k in envelope["release"] if k not in ("as", "storage")]
        envelope["release"][key] = base64.b64encode(path.read_bytes()).decode()
        with pytest.raises(WireError, match="f8 sketch payloads"):
            wire.decode_query(json.dumps(envelope).encode())

    @pytest.mark.parametrize("version", [1, 2])
    def test_retired_container_versions_rejected(self, version):
        import base64

        blob = b"RSKB" + version.to_bytes(2, "big") + (2).to_bytes(4, "big") + b"{}"
        envelope = json.loads(
            wire.encode_query(CrossQuery(queries=_TEMPLATE)).decode("utf-8")
        )
        envelope["release"]["v3"] = base64.b64encode(blob).decode()
        with pytest.raises(WireError, match=f"unsupported format version {version}"):
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
