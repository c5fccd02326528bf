"""JSON-lines front end: request handling, the codec, and streams."""

import base64
import io
import itertools
import json
import math

import pytest

import numpy as np

from repro.serve import CompileService
from repro.serve.frontend import (
    PROTOCOL_VERSION,
    array_to_npy_bytes,
    as_wire_array,
    decode_array,
    encode_array,
    handle_line,
    handle_request,
    npy_bytes_to_array,
    serve_stream,
)

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)
SOURCE_ABC = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; "
    "Matrix C <General, Singular>; R := A * B * C;"
)


@pytest.fixture
def service():
    service = CompileService(workers=2, warm=False)
    yield service
    service.close()


class TestHandleRequest:
    def test_compile_round_trip(self, service):
        response = handle_request(
            service,
            {
                "op": "compile",
                "source": SOURCE_ABC,
                "options": {"num_training_instances": 25},
                "id": 7,
            },
        )
        assert response["ok"] is True
        assert response["id"] == 7
        assert response["num_variants"] >= 1
        assert response["handle"]
        assert response["elapsed_ms"] >= 0

    def test_compile_options_are_honoured(self, service):
        base = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        expanded = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25, "expand_by": 1}},
        )
        # Different options -> different content address (and no false
        # cache hit); the variant set can only grow under expansion.
        assert expanded["handle"] != base["handle"]
        assert expanded["num_variants"] >= base["num_variants"]
        assert service.session.cache_stats().misses == 2

    def test_dispatch_by_handle(self, service):
        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        response = handle_request(
            service,
            {"op": "dispatch", "handle": compiled["handle"],
             "sizes": [10, 200, 5, 100], "id": "d1"},
        )
        assert response["ok"] is True
        assert response["id"] == "d1"
        assert response["variant"] in compiled["variants"]
        assert response["cost"] > 0

    def test_dispatch_compile_if_needed(self, service):
        response = handle_request(
            service,
            {"op": "dispatch", "source": SOURCE_AB, "sizes": [4, 5, 6]},
        )
        assert response["ok"] is True
        assert response["handle"]
        assert service.metrics.compiled == 1

    def test_dispatch_unknown_handle(self, service):
        response = handle_request(
            service, {"op": "dispatch", "handle": "nope", "sizes": [2, 3, 4]}
        )
        assert response["ok"] is False
        assert "unknown compilation handle" in response["error"]

    def test_compile_can_ship_the_artifact(self, service):
        from repro.compiler.program import CompiledProgram

        response = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB, "artifact": True,
             "options": {"num_training_instances": 20}},
        )
        assert response["ok"] is True
        program = CompiledProgram.loads(json.dumps(response["artifact"]))
        assert program.key == response["handle"]
        assert [v.name for v in program.variants] == response["variants"]

    def test_execute_npy_arrays_match_in_process_execution(self, service):
        import numpy as np

        from repro.runtime.executor import (
            naive_evaluate,
            random_instance_arrays,
        )
        from repro.serve.frontend import decode_array, encode_array

        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}},
        )
        generated = service.lookup(compiled["handle"])
        rng = np.random.default_rng(5)
        arrays = random_instance_arrays(generated.chain, (7, 4, 9, 3), rng)
        response = handle_request(
            service,
            {
                "op": "execute",
                "handle": compiled["handle"],
                "arrays": [encode_array(a) for a in arrays],
                "id": "x1",
            },
        )
        assert response["ok"] is True, response
        assert response["id"] == "x1"
        assert response["variant"] in compiled["variants"]
        assert response["sizes"] == [7, 4, 9, 3]
        result = decode_array(response["result"])
        # The wire result equals both the in-process dispatcher execution
        # and the dense-numpy oracle.
        np.testing.assert_allclose(result, generated(*arrays))
        np.testing.assert_allclose(
            result, naive_evaluate(generated.chain, arrays), atol=1e-8
        )

    def test_execute_list_arrays_and_json_round_trip(self, service):
        import numpy as np

        from repro.runtime.executor import random_instance_arrays

        compiled = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"num_training_instances": 20}},
        )
        generated = service.lookup(compiled["handle"])
        rng = np.random.default_rng(6)
        arrays = random_instance_arrays(generated.chain, (5, 3, 4), rng)
        # Whole round goes through the text protocol, like a real client.
        line = json.dumps(
            {"op": "execute", "handle": compiled["handle"],
             "arrays": [a.tolist() for a in arrays]}
        )
        response = json.loads(handle_line(service, line))
        assert response["ok"] is True, response
        # List input -> list-encoded result.
        assert isinstance(response["result"], list)
        np.testing.assert_allclose(
            np.asarray(response["result"]), generated(*arrays)
        )
        # Dict-wrapped list arrays also answer in lists (the declared
        # encoding wins, not the payload's JSON type).
        wrapped = handle_request(
            service,
            {"op": "execute", "handle": compiled["handle"],
             "arrays": [
                 {"encoding": "list", "data": a.tolist()} for a in arrays
             ]},
        )
        assert wrapped["ok"] is True
        assert isinstance(wrapped["result"], list)

    def test_execute_compile_if_needed_and_errors(self, service):
        import numpy as np

        from repro.runtime.executor import random_instance_arrays
        from repro.ir.parser import parse_program

        chain = parse_program(SOURCE_AB).chain
        rng = np.random.default_rng(7)
        arrays = random_instance_arrays(chain, (4, 5, 6), rng)
        response = handle_request(
            service,
            {"op": "execute", "source": SOURCE_AB,
             "arrays": [a.tolist() for a in arrays]},
        )
        assert response["ok"] is True
        assert response["handle"]

        assert handle_request(
            service, {"op": "execute", "handle": "nope", "arrays": [[1.0]]}
        )["ok"] is False
        assert handle_request(
            service, {"op": "execute", "handle": response["handle"]}
        )["ok"] is False  # missing arrays
        bad = handle_request(
            service,
            {"op": "execute", "handle": response["handle"],
             "arrays": [{"encoding": "npy", "data": "!!!notbase64"}] * 2},
        )
        assert bad["ok"] is False and "npy" in bad["error"]

    def test_stats_include_last_compile_diagnostics(self, service):
        handle_request(
            service,
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 20}},
        )
        stats = handle_request(service, {"op": "stats"})
        assert stats["workers_mode"] == "thread"
        last = stats["last_compile"]
        assert "enumerate" in last["timings_ms"]
        pool = last["variant_pool"]
        assert pool["strategy"] == "exhaustive"
        assert pool["requested"] == "auto"
        assert pool["pool_size"] >= 1

    def test_stats_and_ping_and_warm(self, service):
        handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"num_training_instances": 20}},
        )
        stats = handle_request(service, {"op": "stats", "id": 3})
        assert stats["ok"] is True
        assert stats["protocol_version"] == PROTOCOL_VERSION
        assert stats["service"]["requests"] == 1
        assert stats["cache"]["misses"] == 1
        assert handle_request(service, {"op": "ping"})["pong"] is True
        warmed = handle_request(service, {"op": "warm"})
        assert warmed["ok"] is True and warmed["warmed"] == 0

    def test_parse_error_is_reported_in_band(self, service):
        response = handle_request(
            service, {"op": "compile", "source": "this is not a program", "id": 1}
        )
        assert response["ok"] is False
        assert response["id"] == 1
        assert response["error_type"] == "ParseError"

    def test_unknown_option_is_reported_in_band(self, service):
        response = handle_request(
            service,
            {"op": "compile", "source": SOURCE_AB,
             "options": {"exapnd_by": 1}},
        )
        assert response["ok"] is False
        assert "unknown compile option" in response["error"]

    def test_multi_term_expression_rejected(self, service):
        source = "Matrix A <General, Singular>; R := A + 2 * A;"
        response = handle_request(service, {"op": "compile", "source": source})
        assert response["ok"] is False
        assert "one chain per request" in response["error"]

    def test_unknown_op_and_malformed_shapes(self, service):
        assert handle_request(service, {"op": "frobnicate"})["ok"] is False
        assert handle_request(service, {"op": "compile"})["ok"] is False
        assert (
            handle_request(service, {"op": "compile", "source": SOURCE_AB,
                                     "options": [1, 2]})["ok"] is False
        )
        assert handle_request(service, {"op": "dispatch", "sizes": []})["ok"] is False
        assert handle_request(service, {"op": "dispatch", "sizes": [2, 3]})["ok"] is False


class TestRegisteredOnly:
    """``handle_request(..., registered_only=True)``: the event loop's
    probe, which answers hot compiles and leaves everything else alone."""

    def test_compile_leaves_the_payload_untouched(self, service):
        payload = {
            "op": "compile",
            "source": SOURCE_ABC,
            "options": {"size_range": [2, 40], "num_training_instances": 20},
        }
        snapshot = json.loads(json.dumps(payload))
        first = handle_request(service, payload)
        hot = handle_request(service, payload, registered_only=True)
        assert payload == snapshot
        assert first["ok"] and hot is not None
        assert hot["handle"] == first["handle"]

    def test_unseen_source_is_neither_parsed_nor_counted(self, service, monkeypatch):
        from repro.serve import frontend

        parsed = []
        monkeypatch.setattr(
            frontend, "_parse_single_chain", lambda source: parsed.append(source)
        )
        source = SOURCE_AB.replace("A", "Unseen")
        for payload in (
            {"op": "compile", "source": source},
            {"op": "dispatch", "source": source, "sizes": [2, 3, 4]},
            {"op": "execute", "source": source, "arrays": [[[1.0]], [[2.0]]]},
            {"op": "warm"},
        ):
            assert handle_request(service, payload, registered_only=True) is None
        assert parsed == []
        assert service.metrics.requests == 0

    def test_concurrent_hot_and_cold_compiles_stay_consistent(self, monkeypatch):
        """Threads mixing queued and registry-answered compiles, with
        handles and memo entries evicted under them: every answer carries
        its own chain, and every request is counted exactly once."""
        import sys
        import threading

        from repro.serve import frontend

        monkeypatch.setattr(frontend, "_PARSE_MEMO_CAPACITY", 2)
        monkeypatch.setattr(frontend, "_parse_memo", type(frontend._parse_memo)())
        sources = [SOURCE_AB, SOURCE_ABC, SOURCE_AB.replace("A", "Z")]
        chains = ["A B", "A B C", "Z B"]
        options = {"num_training_instances": 20}
        service = CompileService(workers=2, warm=False, registry_capacity=1)
        errors: list = []
        counted = [0]
        lock = threading.Lock()

        def client(seed: int) -> None:
            try:
                for step in range(30):
                    index = (seed + step) % len(sources)
                    payload = {
                        "op": "compile",
                        "source": sources[index],
                        "options": options,
                    }
                    response = handle_request(
                        service, payload, registered_only=bool(step % 2)
                    )
                    if response is None:
                        continue
                    with lock:
                        counted[0] += 1
                    assert response["ok"], response
                    assert response["chain"] == chains[index]
            except BaseException as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.close()
        assert errors == []
        metrics = service.metrics
        assert metrics.requests == counted[0]
        assert metrics.requests == (
            metrics.compiled + metrics.cache_hits + metrics.coalesced
        )
        assert len(frontend._parse_memo) <= 2

    def test_parse_memo_is_bounded_and_skips_errors(self, monkeypatch):
        from repro.errors import ParseError
        from repro.serve import frontend

        monkeypatch.setattr(frontend, "_PARSE_MEMO_CAPACITY", 2)
        monkeypatch.setattr(frontend, "_parse_memo", type(frontend._parse_memo)())
        with pytest.raises(ParseError):
            frontend._parse_single_chain("Matrix A <General>; R := A *;")
        assert frontend.parsed_chain("Matrix A <General>; R := A *;") is None
        sources = [SOURCE_AB, SOURCE_ABC, SOURCE_AB.replace("A", "Z")]
        chains = [frontend._parse_single_chain(source) for source in sources]
        assert frontend._parse_single_chain(sources[2]) is chains[2]
        assert frontend.parsed_chain(sources[0]) is None  # least recent, evicted
        assert frontend.parsed_chain(sources[1]) is chains[1]


class TestStream:
    def test_serve_stream_end_to_end(self, service):
        requests = [
            {"op": "compile", "source": SOURCE_ABC,
             "options": {"num_training_instances": 25}, "id": 1},
            {"op": "stats", "id": 2},
        ]
        infile = io.StringIO(
            "\n".join(json.dumps(r) for r in requests) + "\n\n"
        )
        outfile = io.StringIO()
        served = serve_stream(service, infile, outfile)
        assert served == 2
        lines = [json.loads(l) for l in outfile.getvalue().splitlines()]
        assert [l["id"] for l in lines] == [1, 2]
        assert lines[0]["ok"] and lines[1]["ok"]

    def test_serve_stream_max_requests(self, service):
        infile = io.StringIO('{"op": "ping"}\n' * 5)
        outfile = io.StringIO()
        assert serve_stream(service, infile, outfile, max_requests=2) == 2
        assert len(outfile.getvalue().splitlines()) == 2

    def test_malformed_json_answered_in_band(self, service):
        assert handle_line(service, "   ") is None
        response = json.loads(handle_line(service, "{broken"))
        assert response["ok"] is False
        assert "malformed JSON" in response["error"]

    def test_non_object_request(self, service):
        response = json.loads(handle_line(service, "[1, 2, 3]"))
        assert response["ok"] is False
        assert "JSON object" in response["error"]


class TestArrayCodec:
    """The npy wire codec's no-copy fast paths (PR 10 satellite)."""

    def test_as_wire_array_contiguous_is_no_copy(self):
        array = np.random.default_rng(0).standard_normal((64, 64))
        assert np.shares_memory(as_wire_array(array), array)

    def test_as_wire_array_fortran_is_no_copy(self):
        array = np.asfortranarray(np.ones((16, 24)))
        assert np.shares_memory(as_wire_array(array), array)

    def test_as_wire_array_strided_copies(self):
        array = np.ones((32, 32))[::2, ::2]
        wired = as_wire_array(array)
        assert not np.shares_memory(wired, array)
        assert wired.flags.c_contiguous

    def test_npy_bytes_round_trip_all_layouts(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((12, 18))
        empties = [np.zeros(shape) for shape in ((0, 5), (5, 0), (0,))]
        for array in (base, np.asfortranarray(base), base[::2, 1::3], *empties):
            back = npy_bytes_to_array(array_to_npy_bytes(array))
            assert np.array_equal(back, array)
            assert back.shape == array.shape
            assert back.dtype == array.dtype

    def test_npy_bytes_match_np_save(self):
        """The format-string header + join emits byte-identical .npy
        streams, growth-axis spare spaces and alignment padding included."""
        rng = np.random.default_rng(2)
        shapes = [(), (7,), (1, 7), (3, 5), (0, 5), (5, 0), (0,), (64, 64), (10**12, 0)]
        for dtype, order, shape in itertools.product(
            ["<f8", ">f8", "<f4", "<i8"], "CF", shapes
        ):
            values = rng.standard_normal(shape) if math.prod(shape) else np.zeros(shape)
            array = np.asarray(100 * values, dtype=dtype, order=order)
            buffer = io.BytesIO()
            np.save(buffer, array)
            assert array_to_npy_bytes(array) == buffer.getvalue(), (dtype, order, shape)
            assert encode_array(array) == {
                "encoding": "npy",
                "data": base64.b64encode(buffer.getvalue()).decode("ascii"),
            }

    def test_npy_decode_is_zero_copy_view(self):
        array = np.arange(20, dtype=np.float64).reshape(4, 5)
        raw = array_to_npy_bytes(array)
        back = npy_bytes_to_array(raw)
        assert not back.flags.writeable  # aliases the immutable bytes
        assert np.array_equal(back, array)

    def test_encode_decode_round_trip(self):
        array = np.random.default_rng(3).standard_normal((6, 9))
        payload = encode_array(array)
        assert payload["encoding"] == "npy"
        assert np.array_equal(decode_array(payload), array)

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown array encoding"):
            encode_array(np.ones((2, 2)), "protobuf")



def _npy_stream(array: np.ndarray, version: tuple[int, int]) -> bytes:
    """``array`` as the ``.npy`` stream numpy writes in format ``version``."""
    buffer = io.BytesIO()
    if version == (1, 0):
        np.save(buffer, array)
    else:
        np.lib.format.write_array_header_2_0(
            buffer, np.lib.format.header_data_from_array_1_0(array)
        )
        buffer.write(array.tobytes(order="A"))
    return buffer.getvalue()


def _npy_with_header(header: str, data: bytes = b"") -> bytes:
    """A format 1.0 stream around a hand-written header dict."""
    header = header + " " * (-(len(header) + 11) % 64) + "\n"
    length = len(header).to_bytes(2, "little")
    return b"\x93NUMPY\x01\x00" + length + header.encode("latin1") + data


class TestNpyDecoderAgreesWithNpLoad:
    """``npy_bytes_to_array`` decodes what ``np.load`` does, zero-copy."""

    @pytest.mark.parametrize("version", [(1, 0), (2, 0)], ids=["v1", "v2"])
    @pytest.mark.parametrize(
        "shape", [(), (7,), (1, 7), (3, 5), (0, 5), (64, 64)], ids=str
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", ["<f8", ">f8", "<f4", "<i8"])
    def test_matches_np_load(self, dtype, order, shape, version):
        values = np.arange(int(np.prod(shape)), dtype=np.float64) * 1.5 - 3.0
        array = np.asarray(values.reshape(shape), dtype=dtype, order=order)
        raw = _npy_stream(array, version)
        expected = np.load(io.BytesIO(raw), allow_pickle=False)
        back = npy_bytes_to_array(raw)
        assert back.dtype == expected.dtype
        assert back.shape == expected.shape
        assert back.flags.c_contiguous == expected.flags.c_contiguous
        assert back.flags.f_contiguous == expected.flags.f_contiguous
        assert np.array_equal(back, expected)
        if array.size:
            # Aliasing the wire bytes shows the header regex took the
            # stream (the np.load fallback copies).
            assert np.shares_memory(back, np.frombuffer(raw, dtype=np.uint8))

    def test_structured_dtype_falls_back_to_np_load(self):
        array = np.zeros(3, dtype=[("a", "<f8"), ("b", "<i4")])
        back = npy_bytes_to_array(_npy_stream(array, (1, 0)))
        assert back.dtype == array.dtype and np.array_equal(back, array)

    def test_malformed_streams_are_in_band_errors(self, service):
        compiled = handle_request(service, {"op": "compile", "source": SOURCE_AB})
        good = _npy_stream(np.ones((2, 2)), (1, 0))
        past_end = bytearray(good)
        past_end[8:10] = (len(good) + 64).to_bytes(2, "little")
        malformed = {
            "truncated data": good[:-8],
            "header length past the end": bytes(past_end),
            "object dtype": _npy_with_header(
                "{'descr': '|O', 'fortran_order': False, 'shape': (2,), }",
                bytes(16),
            ),
            "extra header key": _npy_with_header(
                "{'descr': '<f8', 'fortran_order': False, 'shape': (2, 2), "
                "'extra': 1, }",
                bytes(32),
            ),
        }
        for case, raw in malformed.items():
            payload = {
                "encoding": "npy", "data": base64.b64encode(raw).decode("ascii")
            }
            response = handle_request(
                service,
                {"op": "execute", "handle": compiled["handle"],
                 "arrays": [payload, encode_array(np.ones((2, 2)))]},
            )
            assert response["ok"] is False, case
            assert "undecodable npy" in response["error"], (case, response)
