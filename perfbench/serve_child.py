"""Server process of the ``serve-mixed`` workload.

    python3 perfbench/serve_child.py <cache-dir>

Runs an ``AsyncCompileServer`` over a ``CompileService`` whose session has
a disk tier in ``<cache-dir>`` and the service's default (``reference``)
backend.  Prints ``{"port": N}`` once listening, then obeys one command
per stdin line, answering each with one JSON line:

* ``trace <phase>`` installs the benchmark's layer spans, recording into
  ``<phase>``; ``trace off`` removes them;
* ``report`` answers the span summary;
* ``quit`` (or end of input) closes the server and service and answers the
  process's peak resident set size.
"""

from __future__ import annotations

import json
import sys


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    cache_dir = sys.argv[1]
    import spans
    from repro.compiler.session import CompilerSession
    from repro.serve import AsyncCompileServer, CompileService
    from repro.serve.backends import DiskBackend

    recorder = spans.SpanRecorder()
    patches = spans.Patches(recorder)
    service = CompileService(
        CompilerSession(cache_backend=DiskBackend(cache_dir)), workers=2, warm=False
    )
    server = AsyncCompileServer(service).start()

    def say(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    say({"port": server.address[1]})
    try:
        for line in sys.stdin:
            words = line.split()
            if not words:
                continue
            if words[0] == "trace":
                if words[1] == "off":
                    patches.uninstall()
                else:
                    recorder.phase = words[1]
                    patches.install()
                say({"ok": True})
            elif words[0] == "report":
                say(recorder.summary())
            elif words[0] == "quit":
                break
    finally:
        patches.uninstall()
        server.close()
        service.close()
    say({"peak_rss_kb": peak_rss_kb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
