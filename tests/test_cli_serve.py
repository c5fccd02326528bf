"""CLI surface of the serving layer: `repro serve`, `repro cache warm`."""

import http.client
import io
import json
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SOURCE = (
    "Matrix A <General, Singular>; Matrix B <General, Singular>;"
    " R := A * B;"
)


def run_serve(monkeypatch, capsys, requests, extra_args=()):
    """Drive `repro serve` in stdin/stdout mode; returns (responses, err)."""
    stdin = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["serve", "--workers", "2", *extra_args]) == 0
    captured = capsys.readouterr()
    responses = [json.loads(line) for line in captured.out.splitlines()]
    return responses, captured.err


class TestServeCommand:
    def test_compile_dispatch_stats_round_trip(self, monkeypatch, capsys):
        responses, _ = run_serve(
            monkeypatch,
            capsys,
            [
                # Default options on both: the dispatch-by-source
                # re-submission must land on the same cache key.
                {"op": "compile", "source": SOURCE, "id": 1},
                {"op": "dispatch", "source": SOURCE, "sizes": [4, 5, 6],
                 "id": 2},
                {"op": "stats", "id": 3},
            ],
        )
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert all(r["ok"] for r in responses)
        assert responses[1]["variant"] in responses[0]["variants"]
        # The dispatch-by-source re-submission was served by the session
        # cache (a hit), not by a second pipeline execution.
        assert responses[2]["service"]["requests"] == 2
        assert responses[2]["service"]["compiled"] == 1
        assert responses[2]["service"]["cache_hits"] == 1
        assert responses[2]["cache"]["misses"] == 1
        assert responses[2]["cache"]["hits"] == 1

    def test_default_backend_is_c(self, monkeypatch, capsys):
        """Without --backend, served compilations execute on ``c`` (as
        ``blas`` where the host cannot build native code)."""
        from repro.runtime import cemit_available

        responses, _ = run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "execute", "source": SOURCE,
                 "arrays": [[[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]]],
                 "id": 1},
                {"op": "stats", "id": 2},
            ],
        )
        assert all(r["ok"] for r in responses), responses
        assert responses[0]["result"] == [[17.0], [39.0]]
        execution = responses[1]["execution"]
        assert execution["backend"] == "c"
        ran = "c" if cemit_available() else "blas"
        assert execution["executions"] == {ran: 1}

    def test_stats_flag_prints_metrics_to_stderr(self, monkeypatch, capsys):
        _, err = run_serve(
            monkeypatch,
            capsys,
            [{"op": "compile", "source": SOURCE,
              "options": {"num_training_instances": 20}}],
            extra_args=["--stats"],
        )
        assert "service:" in err and "coalesce_rate" in err
        assert "cache:" in err

    def test_max_requests_limits_the_stream(self, monkeypatch, capsys):
        responses, _ = run_serve(
            monkeypatch,
            capsys,
            [{"op": "ping"} for _ in range(5)],
            extra_args=["--max-requests", "2"],
        )
        assert len(responses) == 2

    def test_serve_with_cache_dir_warms_on_start(
        self, monkeypatch, capsys, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        main(["compile", "--source", SOURCE, "--train", "20",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        responses, err = run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "compile", "source": SOURCE,
                 "options": {"num_training_instances": 20}, "id": 1},
                {"op": "stats", "id": 2},
            ],
            extra_args=["--cache-dir", cache_dir],
        )
        assert "warmed 1 cache entries" in err
        assert responses[0]["ok"]
        assert responses[1]["warmed"] == 1
        # Warmed into memory: the compile is a pure memory hit.
        assert responses[1]["cache"]["hits"] == 1
        assert responses[1]["cache"]["disk_hits"] == 0

    def test_serve_errors_stay_in_band(self, monkeypatch, capsys):
        responses, _ = run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "compile", "source": "garbage", "id": 1},
                {"op": "nope", "id": 2},
            ],
        )
        assert [r["ok"] for r in responses] == [False, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["--cache-dir", "{d}", "--max-cache-entries", "0"],
        ["--cache-dir", "{d}", "--max-cache-bytes", "-3"],
        ["--cache-capacity", "0"],
        ["--max-cache-entries", "5"],
        ["--max-cache-bytes", "1024"],
    ],
    ids=["zero-entries", "negative-bytes", "zero-capacity", "entries-no-dir",
         "bytes-no-dir"],
)
def test_serve_rejects_invalid_cache_bounds(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    argv = [arg.format(d=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(["serve", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: " in err and "serve" in err


def test_serve_bound_accepts_cache_dir_from_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    responses, _ = run_serve(
        monkeypatch, capsys, [{"op": "ping"}],
        extra_args=["--max-cache-entries", "5"],
    )
    assert responses[0]["ok"]


class TestServeTcp:
    def test_port_serves_jsonl_http_and_stats_until_sigint(self, capsys):
        """`repro serve --port 0 --http-port 0` in its own process: both
        listeners answer, `repro stats` reads it, SIGINT exits cleanly."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--http-port", "0", "--no-warm", "--stats"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            jsonl_address = http_address = None
            while jsonl_address is None or http_address is None:
                line = proc.stderr.readline()
                assert line, "server exited before both banners"
                if match := re.match(r"serving JSON-lines on (\S+):(\d+)$",
                                     line.strip()):
                    jsonl_address = (match[1], int(match[2]))
                elif match := re.match(
                    r"serving HTTP POST on http://(\S+):(\d+)/$", line.strip()
                ):
                    http_address = (match[1], int(match[2]))

            with socket.create_connection(jsonl_address, timeout=30) as conn:
                stream = conn.makefile("rw", encoding="utf-8")

                def request(payload):
                    stream.write(json.dumps(payload) + "\n")
                    stream.flush()
                    return json.loads(stream.readline())

                compiled = request({"op": "compile", "source": SOURCE,
                                    "options": {"num_training_instances": 20}})
                assert compiled["ok"], compiled
                executed = request({
                    "op": "execute",
                    "handle": compiled["handle"],
                    "arrays": [[[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]]],
                })
                assert executed["ok"], executed
                assert executed["result"] == [[17.0], [39.0]]

            conn = http.client.HTTPConnection(*http_address, timeout=30)
            try:
                conn.request("POST", "/", json.dumps({"op": "ping", "id": 9}))
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["pong"] is True
            finally:
                conn.close()

            host, port = jsonl_address
            assert main(["stats", "--host", host, "--port", str(port)]) == 0
            assert "conns:   serve.connections{transport=async}=" in (
                capsys.readouterr().out
            )

            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "service:" in err


class TestCacheWarmCommand:
    def test_cache_warm_reports_count(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["compile", "--source", SOURCE, "--train", "20",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "warm", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "warmed 1 cache entries" in out

    def test_cache_warm_limit(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        second = (
            "Matrix A <General, Singular>; Matrix B <General, Singular>;"
            " Matrix C <General, Singular>; R := A * B * C;"
        )
        main(["compile", "--source", SOURCE, "--train", "20",
              "--cache-dir", cache_dir])
        main(["compile", "--source", second, "--train", "20",
              "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "warm", "--cache-dir", cache_dir,
                     "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "warmed 1 cache entries" in out

    def test_cache_warm_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "warm", "--cache-dir",
                     str(tmp_path / "nothing")]) == 0
        out = capsys.readouterr().out
        assert "warmed 0 cache entries" in out


class TestStatsSummaryRendering:
    """`repro stats` human rendering across server protocol revisions."""

    V2_PAYLOAD = {
        # A pre-v3 server: no "obs" key at all (and no scopes/histograms).
        "ok": True,
        "protocol_version": 2,
        "workers": 2,
        "workers_mode": "thread",
        "inflight": 0,
        "registry_entries": 1,
        "service": {
            "requests": 4,
            "compiled": 2,
            "cache_hits": 1,
            "coalesced": 1,
            "rejected": 0,
            "errors": 0,
            "coalesce_rate": 0.25,
            "queue_depth": 0,
            "p50_ms": 1.5,
            "p99_ms": 3.0,
        },
    }

    V3_PAYLOAD = {
        **V2_PAYLOAD,
        "protocol_version": 3,
        "obs": {
            "counters": {"cache.memory.hits": 3},
            "gauges": {},
            "histograms": {
                'runtime.execute_seconds{backend="reference"}': {
                    "count": 7,
                    "p50": 0.0012,
                },
                "malformed.entry": "not a dict",  # must not crash rendering
            },
            "scopes": {
                "runtime": {
                    "dispatchers": 1,
                    "memo_hits": 6,
                    "memo_misses": 1,
                    "memo_evictions": 0,
                    "reselections": 2,
                    "executions": {"reference": 7},
                },
                "calibration": {
                    "entries": 3,
                    "samples": 21,
                    "refreshes": 2,
                    "age_seconds": 4.2,
                },
            },
        },
    }

    def test_v2_payload_renders_without_obs(self, capsys):
        from repro.cli import _print_stats_summary

        _print_stats_summary(self.V2_PAYLOAD)
        out = capsys.readouterr().out
        assert "protocol v2" in out
        assert "service: requests=4" in out
        # Degrades gracefully: no obs-derived sections, no crash.
        assert "runtime:" not in out
        assert "calibration:" not in out

    def test_v3_payload_renders_runtime_and_calibration(self, capsys):
        from repro.cli import _print_stats_summary

        _print_stats_summary(self.V3_PAYLOAD)
        out = capsys.readouterr().out
        assert "protocol v3" in out
        assert "cache:   cache.memory.hits=3" in out
        assert "reselections=2" in out
        assert "calibration: entries=3  samples=21  refreshes=2  age=4.2s" in out
        assert 'backend="reference"' in out

    def test_never_refreshed_calibration_renders_never(self, capsys):
        from repro.cli import _print_stats_summary

        payload = json.loads(json.dumps(self.V3_PAYLOAD))
        payload["obs"]["scopes"]["calibration"]["age_seconds"] = None
        _print_stats_summary(payload)
        out = capsys.readouterr().out
        assert "age=never" in out

    def test_v4_payload_renders_wire_and_connections(self, capsys):
        from repro.cli import _print_stats_summary

        payload = json.loads(json.dumps(self.V3_PAYLOAD))
        payload["protocol_version"] = 4
        payload["obs"]["counters"].update(
            {
                "serve.wire_bytes{direction=in,transport=async}": 2048,
                "serve.wire_bytes{direction=out,transport=async}": 4096,
            }
        )
        payload["obs"]["gauges"][
            "serve.connections{transport=async}"
        ] = 3.0
        _print_stats_summary(payload)
        out = capsys.readouterr().out
        assert (
            "wire:    serve.wire_bytes{direction=in,transport=async}=2048"
            in out
        )
        assert "serve.wire_bytes{direction=out,transport=async}=4096" in out
        assert "conns:   serve.connections{transport=async}=3" in out

    def test_live_stats_carry_wire_counters(self, monkeypatch, capsys):
        """End-to-end: serve traffic surfaces the serve.wire_bytes
        counters and serve.connections gauge in the stats op."""
        responses, _ = run_serve(
            monkeypatch,
            capsys,
            [{"op": "ping", "id": 1}, {"op": "stats", "id": 2}],
        )
        obs = responses[1]["obs"]
        wire_in = {
            key: value
            for key, value in obs["counters"].items()
            if key.startswith("serve.wire_bytes{direction=in")
        }
        assert wire_in and all(v > 0 for v in wire_in.values())
        assert any(
            key.startswith("serve.connections") for key in obs["gauges"]
        )


class TestServeProcessMode:
    def test_process_mode_serves_compile_and_execute(self, monkeypatch, capsys):
        responses, err = run_serve(
            monkeypatch,
            capsys,
            [
                {"op": "compile", "source": SOURCE,
                 "options": {"num_training_instances": 20}, "id": 1},
                {"op": "execute", "source": SOURCE,
                 "arrays": [[[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]]],
                 "id": 2},
                {"op": "stats", "id": 3},
            ],
            extra_args=["--workers-mode", "process"],
        )
        assert "process pool ready" in err
        assert all(r["ok"] for r in responses), responses
        assert responses[2]["workers_mode"] == "process"
        # [[1,2],[3,4]] @ [[5],[6]] = [[17],[39]]
        assert responses[1]["result"] == [[17.0], [39.0]]
