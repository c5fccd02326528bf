"""Asyncio front end: JSON-lines, HTTP mapping, concurrency, shutdown."""

import json
import socket
import threading

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve import (
    AsyncCompileServer,
    CompileService,
    decode_array,
    encode_array,
)

from conftest import count_admits, queued_path

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)
SOURCE_ABC = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; "
    "Matrix C <General, Singular>; R := A * B * C;"
)


@pytest.fixture(scope="module")
def service():
    service = CompileService(workers=2, warm=False)
    yield service
    service.close()


@pytest.fixture
def server(service):
    server = AsyncCompileServer(service, http_port=0).start()
    yield server
    server.close()


def request_line(sock_file, payload):
    sock_file.write(json.dumps(payload) + "\n")
    sock_file.flush()
    return json.loads(sock_file.readline())


class TestJsonLines:
    def test_ping_and_transports(self, server):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            response = request_line(stream, {"op": "ping", "id": 7})
            assert response["ok"] is True
            assert response["id"] == 7
            assert "npy" in response["transports"]

    def test_compile_and_execute(self, server, service):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            compiled = request_line(
                stream, {"op": "compile", "source": SOURCE_AB, "id": 1}
            )
            assert compiled["ok"], compiled
            a, b = np.ones((4, 5)), np.ones((5, 6))
            executed = request_line(
                stream,
                {
                    "op": "execute",
                    "handle": compiled["handle"],
                    "arrays": [encode_array(a), encode_array(b)],
                    "id": 2,
                },
            )
            assert executed["ok"], executed
            assert np.allclose(decode_array(executed["result"]), a @ b)

    def test_two_clients_share_one_service(self, server):
        def roundtrip(payloads):
            with socket.create_connection(server.address, timeout=10) as conn:
                stream = conn.makefile("rw", encoding="utf-8")
                return [request_line(stream, payload) for payload in payloads]

        first = roundtrip([
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}, "id": 1},
        ])
        second = roundtrip([
            {"op": "compile", "source": SOURCE_ABC.replace("A", "X"),
             "options": {"num_training_instances": 25}, "id": 2},
            {"op": "stats", "id": 3},
        ])
        assert first[0]["ok"] and second[0]["ok"]
        # Same structure from a different connection: same handle
        # (content address), served by the shared session cache.
        assert second[0]["handle"] == first[0]["handle"]
        assert second[1]["cache"]["hits"] >= 1

    def test_malformed_json_answered_in_band(self, server):
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            stream.write("{nope\n")
            stream.flush()
            response = json.loads(stream.readline())
            assert response["ok"] is False
            assert "malformed JSON" in response["error"]
            # The connection survives a malformed request.
            assert request_line(stream, {"op": "ping"})["ok"] is True

    def test_interleaved_partial_lines(self, server):
        """A request split across many writes is one request, not several."""
        payload = json.dumps({"op": "ping", "id": 42}) + "\n"
        with socket.create_connection(server.address) as conn:
            for i in range(0, len(payload), 5):
                conn.sendall(payload[i : i + 5].encode())
            stream = conn.makefile("r")
            response = json.loads(stream.readline())
            assert response == {"ok": True, "pong": True,
                                "transports": response["transports"],
                                "id": 42}

    def test_oversize_line_rejected_in_band(self, service):
        server = AsyncCompileServer(service, max_line_bytes=4096).start()
        try:
            with socket.create_connection(server.address) as conn:
                conn.sendall(b"x" * 10_000 + b"\n")
                stream = conn.makefile("r")
                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert "exceeds 4096 bytes" in response["error"]
                # The stream cannot be resynced: server closes cleanly.
                assert stream.readline() == ""
        finally:
            server.close()

    def test_abrupt_disconnect_mid_execute(self, server, service):
        """A client that dies mid-request must not poison the server."""
        compiled = None
        with socket.create_connection(server.address) as conn:
            stream = conn.makefile("rw")
            compiled = request_line(
                stream, {"op": "compile", "source": SOURCE_AB}
            )
        a, b = np.ones((32, 32)), np.ones((32, 32))
        request = json.dumps(
            {
                "op": "execute",
                "handle": compiled["handle"],
                "arrays": [encode_array(a), encode_array(b)],
            }
        )
        conn = socket.create_connection(server.address)
        conn.sendall(request.encode() + b"\n")
        conn.close()  # gone before the response
        # The server still answers the next client.
        with socket.create_connection(server.address) as conn2:
            stream = conn2.makefile("rw")
            assert request_line(stream, {"op": "ping"})["ok"] is True

    def test_32_simultaneous_connections(self, server):
        """Every one of 32 concurrent clients gets its own answer in-band."""
        results: dict[int, dict] = {}
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                with socket.create_connection(server.address) as conn:
                    stream = conn.makefile("rw")
                    for round_no in range(3):
                        response = request_line(
                            stream, {"op": "ping", "id": i * 100 + round_no}
                        )
                        assert response["id"] == i * 100 + round_no
                    results[i] = response
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 32
        assert all(response["ok"] for response in results.values())


class TestOffload:
    """Requests that may compile never run on the event loop.

    Each source-carrying case names its operands uniquely: a source the
    server has parsed and registered before is a hot compile, answered on
    the loop without reaching ``submit`` (see ``TestHotCompile``).
    """

    @pytest.mark.parametrize(
        "request_payload, blocked",
        [
            (
                {
                    "op": "dispatch",
                    "source": SOURCE_AB.replace("A", "X").replace("B", "Y"),
                    "sizes": [4, 5, 6],
                },
                "submit",
            ),
            (
                {
                    "op": "execute",
                    "source": SOURCE_AB.replace("A", "U").replace("B", "V"),
                    "arrays": [[[1.0, 2.0]], [[3.0], [4.0]]],
                },
                "submit",
            ),
            ({"op": "warm"}, "warm"),
        ],
        ids=["dispatch-source", "execute-source", "warm"],
    )
    def test_ping_answers_while_a_compile_is_blocked(
        self, server, service, monkeypatch, request_payload, blocked
    ):
        entered, release = threading.Event(), threading.Event()
        target = service if blocked == "submit" else service.session
        original = getattr(target, blocked)

        def stalled(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(target, blocked, stalled)
        answers: list[dict] = []

        def slow_client() -> None:
            with socket.create_connection(server.address) as conn:
                answers.append(request_line(conn.makefile("rw"), request_payload))

        thread = threading.Thread(target=slow_client)
        thread.start()
        try:
            assert entered.wait(timeout=10), "the request never reached the service"
            with socket.create_connection(server.address, timeout=5) as conn:
                pong = request_line(conn.makefile("rw"), {"op": "ping"})
            assert pong["ok"] is True
            assert not release.is_set() and not answers  # still blocked
        finally:
            release.set()
            thread.join(timeout=30)
        assert answers and answers[0]["ok"], answers


def ask(server, transport: str, payload: dict) -> dict:
    """One request over a fresh JSON-lines or HTTP connection."""
    if transport == "jsonl":
        with socket.create_connection(server.address, timeout=10) as conn:
            return request_line(conn.makefile("rw"), payload)
    import http.client

    conn = http.client.HTTPConnection(*server.http_address, timeout=10)
    try:
        conn.request(
            "POST", "/", json.dumps(payload), {"Content-Type": "application/json"}
        )
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def without_elapsed(response: dict) -> dict:
    return {key: value for key, value in response.items() if key != "elapsed_ms"}


@pytest.fixture
def hot():
    """A factory of fresh (service, server) pairs with both listeners."""
    opened = []

    def start(**service_kwargs):
        service = CompileService(workers=1, warm=False, **service_kwargs)
        server = AsyncCompileServer(service, http_port=0).start()
        opened.append((service, server))
        return service, server

    yield start
    for service, server in opened:
        server.close()
        service.close()


@pytest.mark.parametrize("transport", ["jsonl", "http"])
class TestHotCompile:
    """A compile the registry holds is answered on the event loop, and
    every field but ``elapsed_ms`` equals what the queued path answers."""

    def test_repeat_compile(self, hot, monkeypatch, transport):
        service, server = hot()
        request = {"op": "compile", "source": SOURCE_ABC, "id": 1}
        first = ask(server, transport, request)
        assert first["ok"], first
        admitted = count_admits(service, monkeypatch)
        fast = ask(server, transport, request)
        assert admitted == []
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request)
        assert len(admitted) == 1
        assert without_elapsed(fast) == without_elapsed(queued)
        assert without_elapsed(fast) == without_elapsed(first)

    @pytest.mark.parametrize(
        "request_payload",
        [
            {"op": "dispatch", "source": SOURCE_ABC, "sizes": [4, 5, 6, 7]},
            {
                "op": "execute",
                "source": SOURCE_ABC,
                "arrays": [[[1.0, 2.0]], [[3.0], [4.0]], [[5.0, 6.0]]],
            },
        ],
        ids=["dispatch", "execute"],
    )
    def test_request_by_source(self, hot, monkeypatch, transport, request_payload):
        service, server = hot()
        assert ask(server, transport, {"op": "compile", "source": SOURCE_ABC})["ok"]
        admitted = count_admits(service, monkeypatch)
        fast = ask(server, transport, request_payload)
        assert fast["ok"], fast
        assert admitted == []
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request_payload)
        assert len(admitted) == 1
        assert without_elapsed(fast) == without_elapsed(queued)

    def test_renamed_operands_answer_with_the_callers_names(
        self, hot, monkeypatch, transport
    ):
        service, server = hot()
        assert ask(server, transport, {"op": "compile", "source": SOURCE_ABC})["ok"]
        renamed = {
            "op": "compile",
            "source": SOURCE_ABC.replace("A", "P").replace("B", "Q"),
        }
        admitted = count_admits(service, monkeypatch)
        answered = ask(server, transport, renamed)
        assert answered["chain"] == "P Q C"
        assert len(admitted) == 1
        queued_path(service, monkeypatch)
        queued = ask(server, transport, renamed)
        assert without_elapsed(answered) == without_elapsed(queued)

    def test_other_backend_replaces_the_registered_entry(
        self, hot, monkeypatch, transport
    ):
        service, server = hot()
        handle = ask(server, transport, {"op": "compile", "source": SOURCE_ABC})[
            "handle"
        ]
        request = {
            "op": "compile",
            "source": SOURCE_ABC,
            "options": {"backend": "blas"},
        }
        admitted = count_admits(service, monkeypatch)
        replacing = ask(server, transport, request)
        assert len(admitted) == 1
        assert replacing["handle"] == handle
        assert service.lookup(handle).dispatcher.backend == "blas"
        fast = ask(server, transport, request)
        assert len(admitted) == 1
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request)
        assert len(admitted) == 2
        assert without_elapsed(fast) == without_elapsed(queued)
        assert without_elapsed(fast) == without_elapsed(replacing)

    def test_evicted_handle(self, hot, monkeypatch, transport):
        service, server = hot(registry_capacity=1)
        request = {"op": "compile", "source": SOURCE_ABC}
        first = ask(server, transport, request)
        assert ask(server, transport, {"op": "compile", "source": SOURCE_AB})["ok"]
        assert service.lookup(first["handle"]) is None
        admitted = count_admits(service, monkeypatch)
        again = ask(server, transport, request)
        assert len(admitted) == 1
        assert without_elapsed(again) == without_elapsed(first)
        assert service.lookup(again["handle"]) is not None

    def test_reassigned_pipeline_gives_no_stale_handle(
        self, hot, monkeypatch, transport
    ):
        service, server = hot()
        request = {"op": "compile", "source": SOURCE_ABC}
        before = ask(server, transport, request)
        service.session.pipeline = service.session.pipeline.without("expand")
        admitted = count_admits(service, monkeypatch)
        after = ask(server, transport, request)
        assert len(admitted) == 1
        assert after["handle"] != before["handle"]
        assert service.lookup(after["handle"]) is not None
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request)
        assert without_elapsed(after) == without_elapsed(queued)

    def test_uncached_compile(self, hot, monkeypatch, transport):
        service, server = hot()
        request = {
            "op": "compile",
            "source": SOURCE_ABC,
            "options": {"use_cache": False},
        }
        assert ask(server, transport, {"op": "compile", "source": SOURCE_ABC})["ok"]
        admitted = count_admits(service, monkeypatch)
        private = ask(server, transport, request)
        assert private["handle"] is None
        assert len(admitted) == 1
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request)
        assert without_elapsed(private) == without_elapsed(queued)

    def test_artifact_request_takes_the_queue(self, hot, monkeypatch, transport):
        """The artifact carries the request's own provenance (a creation
        time and pass timings that differ on every compile), so artifact
        requests always rebind on a worker."""
        service, server = hot()
        request = {"op": "compile", "source": SOURCE_ABC, "artifact": True}
        assert ask(server, transport, {"op": "compile", "source": SOURCE_ABC})["ok"]
        admitted = count_admits(service, monkeypatch)
        answered = ask(server, transport, request)
        assert len(admitted) == 1
        queued_path(service, monkeypatch)
        queued = ask(server, transport, request)
        assert len(admitted) == 2

        def comparable(response: dict) -> dict:
            response = without_elapsed(response)
            meta = response["artifact"]["meta"]
            meta.pop("created_unix")
            meta["timings"] = sorted(meta["timings"])
            return response

        assert comparable(answered) == comparable(queued)


class TestParseThread:
    def test_unseen_sources_parse_on_the_pool_never_the_loop(
        self, hot, monkeypatch
    ):
        """A source the server has not seen parses on a ``repro-aserve``
        pool thread; its later requests are answered on the loop."""
        import uuid

        from repro.serve import frontend

        parsed, compiled = [], []
        original_parse = frontend._parse_single_chain
        original_compile = frontend._handle_compile

        def recording_parse(source):
            parsed.append((source, threading.current_thread().name))
            return original_parse(source)

        def recording_compile(*args, **kwargs):
            compiled.append(threading.current_thread().name)
            return original_compile(*args, **kwargs)

        monkeypatch.setattr(frontend, "_parse_single_chain", recording_parse)
        monkeypatch.setattr(frontend, "_handle_compile", recording_compile)
        service, server = hot()
        name = "U" + uuid.uuid4().hex[:8]
        source = SOURCE_AB.replace("A", name)
        for payload in (
            {"op": "dispatch", "source": source, "sizes": [2, 3, 4]},
            {"op": "compile", "source": source},
            {"op": "compile", "source": source},
        ):
            assert ask(server, "jsonl", payload)["ok"]
        assert parsed and parsed[0][0] == source
        assert parsed[0][1].startswith("repro-aserve_")
        assert all(thread != "repro-aserve-loop" for _, thread in parsed)
        # Both compiles were hot: answered on the loop.
        assert compiled == ["repro-aserve-loop", "repro-aserve-loop"]


class TestHttp:
    def post(self, address, body, headers=None):
        import http.client

        conn = http.client.HTTPConnection(*address, timeout=10)
        try:
            conn.request(
                "POST", "/", body, headers or {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_post_stats(self, server):
        status, body = self.post(
            server.http_address, json.dumps({"op": "stats", "id": 1})
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["protocol_version"] >= 4

    def test_post_execute(self, server, service):
        compiled = json.loads(
            self.post(
                server.http_address,
                json.dumps({"op": "compile", "source": SOURCE_AB}),
            )[1]
        )
        a, b = np.ones((3, 4)), np.ones((4, 2))
        status, body = self.post(
            server.http_address,
            json.dumps(
                {
                    "op": "execute",
                    "handle": compiled["handle"],
                    "arrays": [encode_array(a), encode_array(b)],
                }
            ),
        )
        assert status == 200
        executed = json.loads(body)
        assert executed["ok"], executed
        assert np.allclose(decode_array(executed["result"]), a @ b)

    def test_get_rejected_405(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.http_address, timeout=10)
        try:
            conn.request("GET", "/")
            response = conn.getresponse()
            assert response.status == 405
        finally:
            conn.close()

    def test_bad_request_line_400(self, server):
        with socket.create_connection(server.http_address) as conn:
            conn.sendall(b"garbage\r\n\r\n")
            reply = conn.makefile("rb").readline()
            assert b"400" in reply

    def test_keep_alive_two_requests_one_connection(self, server):
        import http.client

        conn = http.client.HTTPConnection(*server.http_address, timeout=10)
        try:
            for i in range(2):
                conn.request(
                    "POST",
                    "/",
                    json.dumps({"op": "ping", "id": i}),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["id"] == i
        finally:
            conn.close()


class TestLifecycle:
    def test_close_is_idempotent_and_deterministic(self, service):
        server = AsyncCompileServer(service).start()
        address = server.address
        server.close()
        server.close()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=0.5)

    def test_client_mid_connection_gets_eof_on_close(self, service):
        server = AsyncCompileServer(service).start()
        conn = socket.create_connection(server.address)
        stream = conn.makefile("rw")
        assert request_line(stream, {"op": "ping"})["ok"] is True
        server.close()
        # A blocked reader observes a clean EOF, not a hang or a reset.
        conn.settimeout(5)
        assert stream.readline() == ""
        conn.close()

    def test_close_waits_for_offloaded_requests(self, service, monkeypatch):
        """close() returns only once running offloads have finished and
        the worker pool's threads are joined."""
        gauge = get_registry().gauge("serve.connections", transport="async")
        connections_before = gauge.value
        threads_before = set(threading.enumerate())
        entered, release = threading.Event(), threading.Event()
        original = service.submit

        def stalled(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        monkeypatch.setattr(service, "submit", stalled)
        server = AsyncCompileServer(service).start()
        clients = [socket.create_connection(server.address) for _ in range(3)]
        timer = threading.Timer(0.5, release.set)
        # Operand names no other test uses: a hot compile would be
        # answered on the loop without an offload.
        source = SOURCE_AB.replace("A", "K").replace("B", "L")
        try:
            for conn in clients:
                conn.sendall(
                    json.dumps({"op": "compile", "source": source}).encode()
                    + b"\n"
                )
            assert entered.wait(timeout=10), "no compile reached the service"
            timer.start()
            server.close(timeout=5)
            leaked = [
                thread.name
                for thread in set(threading.enumerate()) - threads_before
                if thread.name.startswith("repro-aserve")
            ]
            assert leaked == []
            assert gauge.value == connections_before
        finally:
            release.set()
            timer.cancel()
            for conn in clients:
                conn.close()

