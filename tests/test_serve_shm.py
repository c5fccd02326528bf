"""Zero-copy shared-memory operand transport (repro.serve.shm)."""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.serve import CompileService, encode_array, handle_request
from repro.serve import shm
from repro.serve.frontend import decode_array, decode_operand

SOURCE_AB = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>; R := A * B;"
)

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on this host"
)


@pytest.fixture
def service():
    service = CompileService(workers=2, warm=False)
    yield service
    service.close()


@pytest.fixture
def reaper():
    reaper = shm.SegmentReaper(ttl=60.0)
    yield reaper
    reaper.close()


class TestSegmentRoundTrip:
    def test_payload_shape_and_copy(self):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        payload, segment = shm.create_segment_payload(array)
        try:
            assert payload["encoding"] == "shm"
            assert payload["shape"] == [3, 4]
            assert payload["dtype"] == "<f8"
            back = shm.read_segment_payload(payload)
            assert np.array_equal(back, array)
            # read_segment_payload copies: the original segment may die.
            assert back.base is None or not isinstance(back.base, memoryview)
        finally:
            segment.close()
            segment.unlink()

    def test_open_segment_is_zero_copy_and_read_only(self):
        array = np.random.default_rng(0).standard_normal((8, 8))
        payload, segment = shm.create_segment_payload(array)
        try:
            view, mapped = shm.open_segment(payload)
            assert np.array_equal(view, array)
            assert not view.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                view[0, 0] = 1.0
            del view
            mapped.close()
        finally:
            segment.close()
            segment.unlink()

    def test_unknown_segment_rejected(self):
        with pytest.raises(ValueError, match="unknown shm segment"):
            shm.open_segment(
                {"encoding": "shm", "name": "psm_does_not_exist",
                 "shape": [2, 2], "dtype": "<f8"}
            )

    def test_oversize_header_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            shm.open_segment(
                {"encoding": "shm", "name": "x",
                 "shape": [1 << 20, 1 << 20], "dtype": "<f8"}
            )

    def test_undersized_segment_rejected(self):
        payload, segment = shm.create_segment_payload(np.zeros((2, 2)))
        try:
            lying = dict(payload, shape=[64, 64])
            with pytest.raises(ValueError, match="claims"):
                shm.open_segment(lying)
        finally:
            segment.close()
            segment.unlink()


class TestAttachOwnership:
    """Attaching never takes ownership: the creator owns the name."""

    def test_attaching_process_exit_keeps_segment(self):
        payload, segment = shm.create_segment_payload(np.arange(4.0))
        # The child attaches from several threads at once, as a server
        # does when concurrent requests carry the same segment.
        child = (
            "import json, sys, threading\n"
            "from repro.serve import shm\n"
            "sys.setswitchinterval(1e-6)\n"
            "payload = json.loads(sys.argv[1])\n"
            "def attach():\n"
            "    for _ in range(100):\n"
            "        view, mapped = shm.open_segment(payload)\n"
            "        assert view.tolist() == [0.0, 1.0, 2.0, 3.0]\n"
            "        del view\n"
            "        mapped.close()\n"
            "threads = [threading.Thread(target=attach) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
        )
        env = dict(os.environ)
        src = str(Path(shm.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        try:
            done = subprocess.run(
                [sys.executable, "-c", child, json.dumps(payload)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            assert "leaked" not in done.stderr
            assert "Traceback" not in done.stderr, done.stderr
            # The child's exit must not have unlinked the parent's segment.
            assert np.array_equal(shm.read_segment_payload(payload), np.arange(4.0))
        finally:
            segment.close()
            shm.release_segment(payload["name"])


class TestReaper:
    def test_release_unlinks(self, reaper):
        payload, _ = shm.create_segment_payload(np.ones((2, 2)), reaper=reaper)
        assert len(reaper) == 1
        assert reaper.release(payload["name"]) is True
        assert len(reaper) == 0
        with pytest.raises(ValueError):
            shm.open_segment(payload)
        assert reaper.release(payload["name"]) is False

    def test_ttl_reaps_orphans(self, reaper):
        payload, _ = shm.create_segment_payload(np.ones((2, 2)), reaper=reaper)
        assert reaper.reap() == 0  # not expired yet
        import time

        assert reaper.reap(now=time.monotonic() + reaper.ttl + 1) == 1
        assert len(reaper) == 0
        with pytest.raises(ValueError):
            shm.open_segment(payload)

    def test_close_unlinks_everything(self, reaper):
        payloads = [
            shm.create_segment_payload(np.ones((2, 2)), reaper=reaper)[0]
            for _ in range(3)
        ]
        assert reaper.close() == 3
        for payload in payloads:
            with pytest.raises(ValueError):
                shm.open_segment(payload)


class TestWireCodec:
    def test_encode_array_shm(self, reaper):
        array = np.random.default_rng(1).standard_normal((4, 6))
        payload = encode_array(array, "shm", reaper=reaper)
        assert payload["encoding"] == "shm"
        assert np.array_equal(decode_array(payload), array)
        reaper.close()

    def test_encode_array_shm_falls_back_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        payload = encode_array(np.ones((2, 2)), "shm")
        assert payload["encoding"] == "npy"
        assert np.array_equal(decode_array(payload), np.ones((2, 2)))

    def test_decode_operand_zero_copy(self):
        array = np.random.default_rng(2).standard_normal((5, 5))
        payload, segment = shm.create_segment_payload(array)
        try:
            view, closer = decode_operand(payload)
            assert closer is not None
            assert np.array_equal(view, array)
            assert not view.flags.writeable
            del view
            closer()
        finally:
            segment.close()
            segment.unlink()

    def test_decode_shm_unavailable_is_protocol_error(self, monkeypatch):
        payload, segment = shm.create_segment_payload(np.ones((2, 2)))
        try:
            monkeypatch.setattr(shm, "_AVAILABLE", False)
            with pytest.raises(ValueError, match="unavailable"):
                decode_operand(payload)
        finally:
            segment.close()
            segment.unlink()


class TestExecuteOverShm:
    def _compile(self, service):
        response = handle_request(
            service, {"op": "compile", "source": SOURCE_AB, "id": 1}
        )
        assert response["ok"], response
        return response["handle"]

    def test_bit_identical_round_trip(self, service):
        handle = self._compile(service)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 24))
        b = rng.standard_normal((24, 8))
        pa, sa = shm.create_segment_payload(a)
        pb, sb = shm.create_segment_payload(b)
        try:
            response = handle_request(
                service,
                {"op": "execute", "handle": handle, "arrays": [pa, pb]},
            )
            assert response["ok"], response
            assert response["result"]["encoding"] == "shm"
            result = decode_array(response["result"])
            # Same kernels, same bytes: shm transport must be bit-exact
            # with the in-process execution.
            expected = service.execute(handle, [a, b]).result
            assert np.array_equal(result, expected)
            released = handle_request(
                service, {"op": "release", "name": response["result"]["name"]}
            )
            assert released == {"ok": True, "released": True, "id": None}
        finally:
            for segment in (sa, sb):
                segment.close()
                segment.unlink()

    def test_result_falls_back_to_npy_when_shm_unavailable(
        self, service, monkeypatch
    ):
        handle = self._compile(service)
        a, b = np.ones((3, 4)), np.ones((4, 2))
        monkeypatch.setattr(shm, "_AVAILABLE", False)
        response = handle_request(
            service,
            {
                "op": "execute",
                "handle": handle,
                "arrays": [encode_array(a), encode_array(b)],
                "result_encoding": "shm",
            },
        )
        assert response["ok"], response
        assert response["result"]["encoding"] == "npy"
        assert np.array_equal(decode_array(response["result"]), a @ b)

    def test_stale_segment_is_in_band_error(self, service):
        handle = self._compile(service)
        payload, segment = shm.create_segment_payload(np.ones((3, 3)))
        segment.close()
        segment.unlink()
        response = handle_request(
            service, {"op": "execute", "handle": handle, "arrays": [payload]}
        )
        assert response["ok"] is False
        assert "unknown shm segment" in response["error"]

    def test_release_unknown_name(self, service):
        response = handle_request(
            service, {"op": "release", "name": "psm_never_created"}
        )
        assert response == {"ok": True, "released": False, "id": None}

    def test_transports_negotiation(self, service):
        response = handle_request(service, {"op": "ping"})
        assert "shm" in response["transports"]
        stats = handle_request(service, {"op": "stats"})
        assert stats["transports"] == response["transports"]
        assert "npy" in stats["transports"]


class TestAttachSkipsResourceTracker:
    """The server maps request segments without the resource tracker."""

    def _compile(self, service):
        return handle_request(
            service, {"op": "compile", "source": SOURCE_AB}
        )["handle"]

    def test_attach_and_execute_never_touch_the_tracker(
        self, service, monkeypatch
    ):
        from multiprocessing import resource_tracker

        handle = self._compile(service)
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((6, 5)), rng.standard_normal((5, 3))
        pa, sa = shm.create_segment_payload(a)
        pb, sb = shm.create_segment_payload(b)
        # Drop the client's own mappings: what /proc/self/maps shows of
        # these names afterwards can only be the server's.
        sa.close()
        sb.close()

        def refuse(*args, **kwargs):
            raise AssertionError("attach touched the resource tracker")

        # Holding every mapping keeps garbage collection from unmapping
        # it: only an explicit close() clears it from /proc/self/maps.
        mappings = []
        open_segment = shm.open_segment

        def recording_open(payload):
            view, mapping = open_segment(payload)
            mappings.append(mapping)
            return view, mapping

        try:
            with monkeypatch.context() as patched:
                patched.setattr(resource_tracker, "register", refuse)
                patched.setattr(resource_tracker, "unregister", refuse)
                patched.setattr(shm, "open_segment", recording_open)
                view, mapping = shm.open_segment(pa)
                assert np.array_equal(view, a)
                del view
                mapping.close()
                ok = handle_request(
                    service,
                    {"op": "execute", "handle": handle, "arrays": [pa, pb],
                     "result_encoding": "npy"},
                )
                failed = handle_request(
                    service,
                    {"op": "execute", "handle": handle, "arrays": [pa]},
                )
            assert ok["ok"], ok
            expected = service.execute(handle, [a, b]).result
            assert np.array_equal(decode_array(ok["result"]), expected)
            assert failed["ok"] is False
            assert len(mappings) == 4
            assert all(mapping.closed for mapping in mappings)
            maps = Path("/proc/self/maps")
            if maps.exists():
                text = maps.read_text()
                for name in (pa["name"], pb["name"]):
                    assert f"/dev/shm/{name}" not in text
        finally:
            sa.unlink()
            sb.unlink()

    def test_unlink_mid_execute_still_answers(self, service, monkeypatch):
        from repro.serve.service import CompileService as Service

        handle = self._compile(service)
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((7, 4)), rng.standard_normal((4, 6))
        pa, sa = shm.create_segment_payload(a)
        pb, sb = shm.create_segment_payload(b)
        execute = Service.execute

        def unlink_then_execute(self, handle, arrays):
            # The client unlinks its segment while the server holds the
            # mapping: POSIX keeps the mapped pages alive.
            assert shm.release_segment(pa["name"])
            return execute(self, handle, arrays)

        try:
            monkeypatch.setattr(Service, "execute", unlink_then_execute)
            response = handle_request(
                service,
                {"op": "execute", "handle": handle, "arrays": [pa, pb],
                 "result_encoding": "npy"},
            )
            monkeypatch.undo()
            assert response["ok"], response
            expected = service.execute(handle, [a, b]).result
            assert np.array_equal(decode_array(response["result"]), expected)
            with pytest.raises(ValueError, match="unknown shm segment"):
                shm.open_segment(pa)
        finally:
            sa.close()
            sb.close()
            sb.unlink()
