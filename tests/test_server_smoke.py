"""Network frontend smoke tests: subprocess server + protocol edges.

The acceptance contract: an HTTP client against a server spawned *as a
separate process* over a saved, memory-mapped store returns
**bit-identical** results to local ``execute()`` on the same store —
for top-k, radius and cross — and error behaviour matches local
execution (same exception classes).
"""

import contextlib
import dataclasses
import json
import os
import socket
import struct
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.core import estimators
from repro.core.sketch import PrivateSketcher, SketchConfig
from repro.serving import (
    CrossQuery,
    DistanceClient,
    DistanceService,
    ExecutionPolicy,
    NormsQuery,
    PairwiseQuery,
    RadiusQuery,
    ShardedSketchStore,
    SketchQueryServer,
    TopKQuery,
    wire,
)

_CONFIG = SketchConfig(input_dim=128, epsilon=8.0, output_dim=64, sparsity=4, seed=11)


def _sketcher():
    return PrivateSketcher(_CONFIG)


def _saved_store(tmp_path, n=40, shard_capacity=7):
    sk = _sketcher()
    rng = np.random.default_rng(3)
    store = ShardedSketchStore(shard_capacity=shard_capacity)
    store.add_batch(
        sk.sketch_batch(rng.standard_normal((n, 128)), noise_rng=1)
    )
    store.save(tmp_path / "store")
    return sk, tmp_path / "store"


def _subprocess_env(**settings):
    """This checkout's sources, no inherited worker or BLAS thread counts,
    then ``settings``: the CLI flags and the test decide."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_SERVING_WORKERS", "REPRO_SERVING_BLAS_THREADS")
        and not key.endswith("_NUM_THREADS")
    }
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(settings)
    return env


@contextlib.contextmanager
def _cli_server(store_dir, *flags, env=None):
    """Run ``python -m repro.serving.server``; yield its banner and URL."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.server", "--store", str(store_dir),
         "--port", "0", *flags],
        env=_subprocess_env() if env is None else env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        assert " at http://" in banner, f"unexpected server banner: {banner!r}"
        yield banner, banner.rsplit(" at ", 1)[1].strip()
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            process.kill()
            process.wait()
        process.stdout.close()


def _run(*argv, env=None):
    """Run the interpreter on ``argv`` in a fresh process, so any BLAS pin stays there."""
    return subprocess.run(
        [sys.executable, *argv],
        env=_subprocess_env() if env is None else env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _assert_remote_matches_local(client, local, sk):
    rng = np.random.default_rng(9)
    query = sk.sketch(rng.standard_normal(128), noise_rng=5)
    batch = sk.sketch_batch(rng.standard_normal((3, 128)), noise_rng=6)

    top_local = local.execute(TopKQuery(queries=query, k=7))
    top_remote = client.execute(TopKQuery(queries=query, k=7))
    assert top_remote.payload == top_local.payload  # labels, estimates: exact
    assert top_remote.stats.shards_visited == top_local.stats.shards_visited

    cutoff = float(np.median([est for _, est in top_local.payload[0]]))
    r_local = local.execute(RadiusQuery(query=query, radius_sq=cutoff))
    r_remote = client.execute(RadiusQuery(query=query, radius_sq=cutoff))
    assert r_remote.payload == r_local.payload

    c_local = local.execute(CrossQuery(queries=batch))
    c_remote = client.execute(CrossQuery(queries=batch))
    assert c_remote.payload.tobytes() == c_local.payload.tobytes()  # bit-identical

    many = client.execute_many([NormsQuery(), PairwiseQuery(indices=(0, 5, 39))])
    np.testing.assert_array_equal(many[0].payload, local.execute(NormsQuery()).payload)
    np.testing.assert_array_equal(
        many[1].payload, local.execute(PairwiseQuery(indices=(0, 5, 39))).payload
    )


class TestSubprocessServer:
    def test_spawned_server_is_bit_identical_to_local_execute(self, tmp_path):
        sk, store_dir = _saved_store(tmp_path)
        local = DistanceService(
            ShardedSketchStore.load(store_dir, mmap=True), ExecutionPolicy(workers=1)
        )
        with _cli_server(store_dir, "--workers", "2") as (_, url):
            client = DistanceClient(url, timeout=30.0)
            health = client.health()
            assert health["rows"] == 40
            assert health["config_digest"] == _CONFIG.digest()
            assert health["workers"] == 2
            _assert_remote_matches_local(client, local, sk)


class TestInProcessServer:
    @pytest.fixture()
    def served(self, tmp_path):
        sk, store_dir = _saved_store(tmp_path)
        local = DistanceService(
            ShardedSketchStore.load(store_dir, mmap=True), ExecutionPolicy(workers=1)
        )
        with SketchQueryServer.from_store_dir(
            store_dir, port=0, policy=ExecutionPolicy(workers=1)
        ).start() as server:
            yield sk, local, server, DistanceClient(server.url)

    def test_bit_identical_results(self, served):
        sk, local, _, client = served
        _assert_remote_matches_local(client, local, sk)

    def test_len_and_meta(self, served):
        _, local, _, client = served
        assert len(client) == len(local)
        meta = client.meta()
        assert meta["metadata"]["config_digest"] == _CONFIG.digest()
        assert meta["metadata"]["output_dim"] == 64

    def test_remote_errors_match_local_exception_classes(self, served):
        sk, local, _, client = served
        foreign = PrivateSketcher(dataclasses.replace(_CONFIG, seed=99)).sketch(
            np.ones(128), noise_rng=0
        )
        query = TopKQuery(queries=foreign, k=1)
        with pytest.raises(ValueError, match="different configurations"):
            local.execute(query)
        with pytest.raises(ValueError, match="different configurations"):
            client.execute(query)
        with pytest.raises(IndexError, match="out of range"):
            client.execute(PairwiseQuery(indices=(0, 10_000)))

    def test_malformed_body_is_a_wire_error(self, served):
        _, _, server, _ = served
        request = urllib.request.Request(
            server.url + "/query", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        error = wire.decode_error(excinfo.value.read())
        assert isinstance(error, wire.WireError)

    def test_version_mismatch_is_rejected(self, served):
        _, _, server, client = served
        envelope = json.loads(wire.encode_query(NormsQuery()).decode())
        envelope["version"] = 999
        request = urllib.request.Request(
            server.url + "/query", data=json.dumps(envelope).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "unsupported wire version" in str(wire.decode_error(excinfo.value.read()))

    def test_oversized_body_rejected_and_connection_closed(self, served, monkeypatch):
        # the body is never drained on a 413, so the server must close the
        # keep-alive connection — otherwise the unread bytes would be
        # parsed as the next request line and desynchronize the stream
        import http.client

        from repro.serving import server as server_module

        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        _, _, server, _ = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("POST", "/query", body=b"x" * 1024)
            response = connection.getresponse()
            assert response.status == 413
            response.read()
            assert response.will_close  # server told us to drop the connection
        finally:
            connection.close()

    def test_chunked_body_rejected_and_connection_closed(self, served):
        # the stdlib handler cannot dechunk, so a chunked POST must be
        # refused with a close — not leave chunk lines in the stream to
        # be misparsed as the next request
        import http.client

        _, _, server, _ = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Transfer-Encoding", "chunked")
            connection.endheaders()
            connection.send(b"5\r\nhello\r\n0\r\n\r\n")
            response = connection.getresponse()
            assert response.status == 501
            assert "Content-Length" in str(wire.decode_error(response.read()))
            assert response.will_close
        finally:
            connection.close()

    def test_negative_content_length_rejected(self, served):
        # a negative length must not become a read-to-EOF that parks the
        # handler thread forever on a keep-alive connection
        import http.client

        _, _, server, _ = served
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", "-1")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert isinstance(wire.decode_error(response.read()), ValueError)
        finally:
            connection.close()

    def test_oversized_result_rejected_before_allocation(self, served, monkeypatch):
        # a bytes-cheap request must not force a quadratically larger
        # allocation: the server refuses, the client can chunk instead
        from repro.serving import server as server_module

        _, local, _, client = served
        monkeypatch.setattr(server_module, "MAX_RESULT_CELLS", 100)
        big = PairwiseQuery(indices=(0,) * 11)  # 121 cells > 100
        with pytest.raises(ValueError, match="cell limit"):
            client.execute(big)
        with pytest.raises(ValueError, match="cell limit"):
            client.execute_many([NormsQuery(), big])
        assert local.execute(big).payload.shape == (11, 11)  # local: uncapped
        # top-k rankings count too: 40 rows in the store, k capped by n
        sk = _sketcher()
        wide = TopKQuery(queries=sk.sketch_batch(
            np.random.default_rng(1).standard_normal((5, 128)), noise_rng=2
        ), k=1000)  # 5 * min(1000, 40) = 200 cells > 100
        with pytest.raises(ValueError, match="cell limit"):
            client.execute(wide)
        # a /query-many batch is one allocation unit: two under-cap
        # queries whose sum is over the cap are refused together
        medium = PairwiseQuery(indices=(0,) * 8)  # 64 cells each
        with pytest.raises(ValueError, match="cell limit"):
            client.execute_many([medium, medium])
        # norms/radius results cost one entry per stored row each: a
        # batch of them must not slip under the cap as zero cells
        with pytest.raises(ValueError, match="cell limit"):
            client.execute_many([NormsQuery()] * 3)  # 3 * 40 = 120 > 100
        small = PairwiseQuery(indices=(0, 1, 2))
        np.testing.assert_array_equal(
            client.execute(small).payload, local.execute(small).payload
        )

    def test_mid_response_transport_failures_raise_connection_error(self, served, monkeypatch):
        # every checkout hands back a connection that dies mid-exchange:
        # the client must burn its retries and surface ConnectionError,
        # whether the peer stalls past the timeout or cuts the body short
        import socket

        from repro.serving.client import _Connection

        _, _, server, _ = served
        short = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nx"
        for reply, cause in ((None, TimeoutError), (short, ConnectionError)):
            client = DistanceClient(server.url, timeout=0.2, retries=1)
            peers = []

            def dead_connection(_reply=reply):
                ours, theirs = socket.socketpair()
                ours.settimeout(client.timeout)
                peers.append(theirs)
                if _reply is not None:
                    theirs.sendall(_reply)
                    theirs.shutdown(socket.SHUT_WR)
                return _Connection(ours)

            monkeypatch.setattr(client, "_checkout", dead_connection)
            try:
                with pytest.raises(ConnectionError, match="cannot reach") as raised:
                    client.execute(NormsQuery())
            finally:
                for peer in peers:
                    peer.close()
            assert type(raised.value.__cause__) is cause
            assert client.retries_used == 1  # retried once, then gave up

    def test_untyped_query_raises_type_error_like_local_execute(self, served):
        sk, local, _, client = served
        not_a_query = sk.sketch(np.ones(128), noise_rng=0)
        with pytest.raises(TypeError, match="typed query"):
            local.execute(not_a_query)
        with pytest.raises(TypeError, match="typed query"):
            client.execute(not_a_query)

    def test_server_fault_raises_connection_error_not_value_error(self, served, monkeypatch):
        # a 500 is a server fault: retry logic must be able to tell it
        # apart from the ValueError a permanently-bad query raises
        _, _, server, client = served

        def explode(query):
            raise RuntimeError("shard file vanished")

        monkeypatch.setattr(server.service, "execute", explode)
        with pytest.raises(ConnectionError, match="HTTP 500"):
            client.execute(NormsQuery())

    def test_unknown_endpoint_404(self, served):
        _, _, server, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=10)
        assert excinfo.value.code == 404

    def test_unreachable_server_raises_connection_error(self):
        client = DistanceClient("http://127.0.0.1:9", timeout=2.0)  # discard port
        with pytest.raises(ConnectionError, match="cannot reach"):
            client.execute(NormsQuery())

    def test_empty_execute_many_never_hits_the_wire(self):
        client = DistanceClient("http://127.0.0.1:9", timeout=2.0)
        assert client.execute_many([]) == []


class TestQuantisedStoreServing:
    def test_quantised_store_serves_with_reported_storage(self, tmp_path):
        # the network frontend over a low-precision store: /healthz and
        # /meta report the storage spec and stored-value bytes, and the
        # client's results are bit-identical to local execute() on the
        # same mmap-loaded quantised store
        sk = _sketcher()
        rng = np.random.default_rng(4)
        store = ShardedSketchStore(shard_capacity=7, storage="f4")
        store.add_batch(sk.sketch_batch(rng.standard_normal((40, 128)), noise_rng=1))
        store.save(tmp_path / "store")
        local = DistanceService(
            ShardedSketchStore.load(tmp_path / "store", mmap=True),
            ExecutionPolicy(workers=1),
        )
        with SketchQueryServer.from_store_dir(
            tmp_path / "store", port=0, policy=ExecutionPolicy(workers=1)
        ).start() as server:
            client = DistanceClient(server.url)
            health = client.health()
            assert health["storage"] == "f4"
            meta = client.meta()
            assert meta["storage"] == "f4"
            assert meta["nbytes"] == 40 * 64 * 4  # half of the f8 footprint
            _assert_remote_matches_local(client, local, sk)


class TestServerLifecycle:
    def test_close_without_start_returns_immediately(self, tmp_path):
        # regression: BaseServer.shutdown() waits on an event only a
        # serve_forever loop sets, so close() on a never-started server
        # used to block forever (e.g. in an abort/cleanup path)
        _, store_dir = _saved_store(tmp_path, n=5)
        server = SketchQueryServer.from_store_dir(store_dir, port=0)
        start = time.perf_counter()
        server.close()
        assert time.perf_counter() - start < 5.0

    def test_close_is_idempotent_after_start(self, tmp_path):
        _, store_dir = _saved_store(tmp_path, n=5)
        server = SketchQueryServer.from_store_dir(store_dir, port=0).start()
        server.close()
        server.close()  # second close must not hang or raise


class TestServerOverLiveStores:
    def test_server_wraps_an_in_memory_service_too(self):
        # the frontend is not tied to saved stores: any DistanceService
        # (here: an in-memory store still being appended to) can serve
        sk = _sketcher()
        store = ShardedSketchStore(shard_capacity=8)
        store.add_batch(
            sk.sketch_batch(
                np.random.default_rng(0).standard_normal((10, 128)), noise_rng=1
            )
        )
        service = DistanceService(store, ExecutionPolicy(workers=1))
        with SketchQueryServer(service, port=0).start() as server:
            client = DistanceClient(server.url)
            assert len(client) == 10
            store.add_batch(
                sk.sketch_batch(
                    np.random.default_rng(1).standard_normal((5, 128)), noise_rng=2
                )
            )
            assert len(client) == 15  # appends visible through the frontend
            query = sk.sketch(np.ones(128), noise_rng=3)
            remote = client.execute(TopKQuery(queries=query, k=15))
            local = service.execute(TopKQuery(queries=query, k=15))
            assert remote.payload == local.payload


def _ipv6_loopback_available() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        probe = socket.socket(socket.AF_INET6, socket.SOCK_STREAM)
        try:
            probe.bind(("::1", 0))
        finally:
            probe.close()
        return True
    except OSError:
        return False


class TestAdvertisedUrl:
    """The URL line is machine-parsed: it must always be connectable."""

    def test_wildcard_bind_advertises_loopback_not_0000(self, tmp_path):
        # regression: --host 0.0.0.0 used to print http://0.0.0.0:PORT,
        # which launchers would then fail to connect to
        _, store_dir = _saved_store(tmp_path, n=5)
        with SketchQueryServer.from_store_dir(
            store_dir, host="0.0.0.0", port=0
        ).start() as server:
            assert server.host == "127.0.0.1"
            assert server.url == f"http://127.0.0.1:{server.port}"
            client = DistanceClient(server.url)
            assert client.health()["status"] == "ok"  # the URL really connects

    @pytest.mark.skipif(
        not _ipv6_loopback_available(), reason="no IPv6 loopback on this host"
    )
    def test_ipv6_host_is_bracketed_and_connectable(self, tmp_path):
        # regression: an IPv6 bind used to render http://::1:PORT, which
        # no URL parser reads back (the colons swallow the port)
        _, store_dir = _saved_store(tmp_path, n=5)
        with SketchQueryServer.from_store_dir(
            store_dir, host="::1", port=0
        ).start() as server:
            assert server.url == f"http://[::1]:{server.port}"
            client = DistanceClient(server.url)
            assert client.health()["rows"] == 5

    @pytest.mark.skipif(
        not _ipv6_loopback_available(), reason="no IPv6 loopback on this host"
    )
    def test_ipv6_wildcard_advertises_bracketed_loopback(self, tmp_path):
        _, store_dir = _saved_store(tmp_path, n=5)
        with SketchQueryServer.from_store_dir(
            store_dir, host="::", port=0
        ).start() as server:
            assert server.url == f"http://[::1]:{server.port}"
            client = DistanceClient(server.url)
            assert client.health()["rows"] == 5


class TestClientDisconnects:
    """A client hanging up is routine, not a server fault."""

    @pytest.fixture()
    def served(self, tmp_path):
        sk, store_dir = _saved_store(tmp_path)
        local = DistanceService(
            ShardedSketchStore.load(store_dir, mmap=True), ExecutionPolicy(workers=1)
        )
        with SketchQueryServer.from_store_dir(
            store_dir, port=0, policy=ExecutionPolicy(workers=1)
        ).start() as server:
            yield sk, local, server, DistanceClient(server.url)

    def test_mid_request_disconnect_is_quiet_and_server_survives(self, served, capfd):
        # a client that dies mid-body used to make the handler thread
        # print a full traceback per disconnect; the reset must be
        # swallowed and the server must keep answering
        _, _, server, client = served
        body = wire.encode_query(NormsQuery())
        for sent in (0, len(body) // 2):  # die before and mid-body
            raw = socket.create_connection((server.host, server.port), timeout=10)
            try:
                head = (
                    f"POST /query HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
                raw.sendall(head + body[:sent])
                # SO_LINGER(1, 0) turns close() into a hard RST — the
                # worst-case disconnect, mid-read on the server side
                raw.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
            finally:
                raw.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:  # let the handler threads hit the reset
            if client.health()["status"] == "ok":
                break
        assert client.health()["status"] == "ok"
        assert client.execute(NormsQuery()).payload.shape == (40,)
        captured = capfd.readouterr()
        assert "Traceback" not in captured.err, captured.err


@pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT"
)
class TestMultiProcessServer:
    def test_workers_share_one_port_and_match_local(self, tmp_path):
        sk, store_dir = _saved_store(tmp_path)
        local = DistanceService(
            ShardedSketchStore.load(store_dir, mmap=True), ExecutionPolicy(workers=1)
        )
        # an inherited count reaches the spawned workers, which pin anyway
        env = _subprocess_env(OPENBLAS_NUM_THREADS="2")
        flags = ("--processes", "2", "--cache", "64")
        with _cli_server(store_dir, *flags, env=env) as (banner, url):
            assert "2 processes" in banner
            assert "blas_threads=1, workers=1" in banner
            client = DistanceClient(url, timeout=30.0)
            health = client.health()
            assert health["rows"] == 40
            assert health["cache"]["max_entries"] == 64
            _assert_remote_matches_local(client, local, sk)
            # the banner is printed only after every worker accepts, and
            # the kernel spreads fresh connections across them: distinct
            # pids prove both workers really share the port
            pids = set()
            for _ in range(32):
                with DistanceClient(url, pool_size=0) as probe:
                    health = probe.health()
                # every worker pinned BLAS at start-up, whichever answers
                assert health["blas_threads"] == 1, health
                pids.add(health["pid"])
                if len(pids) >= 2:
                    break
            assert len(pids) >= 2, f"all connections landed on one worker: {pids}"


_IN_PROCESS_SCRIPT = """
import json, sys
from repro.serving import DistanceClient, ExecutionPolicy, PairwiseQuery, SketchQueryServer
from repro.serving.execution import blas_threads

before = blas_threads()
with SketchQueryServer.from_store_dir(
    sys.argv[1], port=0, policy=ExecutionPolicy(workers=1)
).start() as server:
    client = DistanceClient(server.url)
    client.execute(PairwiseQuery(indices=(0, 1, 2)))
    served = client.health()["blas_threads"]
print(json.dumps([before, served, blas_threads()]))
"""


class TestBlasThreadPin:
    """Every CLI server process pins BLAS at start-up; embedders decide.

    The pin is process-wide and once-only, so each test runs a
    subprocess with its own environment and this process is never
    pinned.
    """

    def test_cli_server_serves_at_one_blas_thread(self, tmp_path):
        _, store_dir = _saved_store(tmp_path, n=5)
        with _cli_server(store_dir) as (banner, url):
            health = DistanceClient(url, timeout=30.0).health()
        assert (health["blas_threads"], health["workers"]) == (1, 1)
        assert "blas_threads=1, workers=1" in banner

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="2 BLAS threads need 2 cores")
    @pytest.mark.parametrize(
        "setting, expected",
        [
            ({"REPRO_SERVING_BLAS_THREADS": "2"}, 2),
            # an inherited count is not a knob: the pin overrides it
            ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ],
    )
    def test_only_the_serving_variable_sets_the_count(self, tmp_path, setting, expected):
        _, store_dir = _saved_store(tmp_path, n=5)
        with _cli_server(store_dir, env=_subprocess_env(**setting)) as (_, url):
            assert DistanceClient(url, timeout=30.0).health()["blas_threads"] == expected

    def test_in_process_server_leaves_host_blas_as_found(self, tmp_path):
        _, store_dir = _saved_store(tmp_path, n=5)
        result = _run("-c", _IN_PROCESS_SCRIPT, str(store_dir))
        assert result.returncode == 0, result.stderr
        before, served, after = json.loads(result.stdout)
        assert before == served == after

    @pytest.mark.parametrize("flags", [(), ("--processes", "2")])
    def test_bad_workers_flag_is_a_usage_error(self, tmp_path, flags):
        result = _run(
            "-m", "repro.serving.server", "--store", str(tmp_path), "--workers", "0", *flags
        )
        assert result.returncode == 2, result.stderr
        assert "usage:" in result.stderr
        assert "--workers must be >= 1, got 0" in result.stderr

    @pytest.mark.parametrize("raw", ["0", "abc"])
    def test_bad_blas_threads_variable_fails_loudly(self, raw):
        result = _run(
            "-c",
            "from repro.serving.execution import pin_blas_threads; pin_blas_threads()",
            env=_subprocess_env(REPRO_SERVING_BLAS_THREADS=raw),
        )
        assert result.returncode == 1
        assert f"ValueError: REPRO_SERVING_BLAS_THREADS={raw!r}" in result.stderr

    def test_repeat_pin_returns_the_first(self):
        result = _run(
            "-c",
            "from repro.serving.execution import blas_threads, pin_blas_threads\n"
            "print(pin_blas_threads(), pin_blas_threads(3), blas_threads())"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", "1", "1"]
