"""Run ``repro serve`` as the benchmark's server child, with or without spans.

    python3 perfbench/serve_child.py [--spans PATH] serve --port 0 ...

Everything after the optional ``--spans PATH`` goes to the program's own
command line unchanged. With ``--spans`` the layer wrappers of
perfbench/spans.py are installed before the server starts; that is the only
difference between a traced and an untraced server. When the server stops
(SIGINT), a traced child writes every span to PATH and prints one last line
``PERFBENCH_SPANS <json>`` with the per-label self seconds and calls.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    span_path = None
    if argv[:1] == ["--spans"]:
        span_path, argv = argv[1], argv[2:]
    # The parent reads the "listening on" line to learn the port.
    sys.stdout.reconfigure(line_buffering=True)
    recorder = None
    if span_path is not None:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder, serve_roots=True)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if recorder is not None:
        from run import host_fingerprint

        recorder.dump(span_path, host_fingerprint())
        print("PERFBENCH_SPANS " + json.dumps({
            "labels": recorder.label_totals(),
            "counters": dict(recorder.counters),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
