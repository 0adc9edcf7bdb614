"""Gossip server process for the gossip_http workload.

    python3 bench/server_child.py --headers FILE --start-height H --report FILE

Loads the wire-encoded headers in FILE into a full window through
`chainview.append`, starts `service.serve` on a free loopback port and
prints `READY <port>`.  Commands then arrive one per line on stdin:
`trace` installs the benchmark's tracer and answers `TRACING`; `stop`, or
end of input, closes the server and writes a JSON report to the --report
file.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blocksentinel import chainview, headers, service  # noqa: E402

import tracing  # noqa: E402

WIRE = 80


def load_window(path: Path, start_height: int) -> chainview.HeaderWindow:
    data = path.read_bytes()
    window = chainview.HeaderWindow(capacity=len(data) // WIRE)
    for offset in range(0, len(data), WIRE):
        header = headers.decode_wire(data[offset : offset + WIRE])
        window = chainview.append(window, header, start_height + offset // WIRE)
    return window


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--headers", required=True)
    parser.add_argument("--start-height", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--spans", default=None, help="write traced spans here")
    args = parser.parse_args()

    window = load_window(Path(args.headers), args.start_height)
    handle = service.serve(host="127.0.0.1", port=0, initial_window=window)
    print(f"READY {handle.port}", flush=True)

    tracer = None
    for line in sys.stdin:
        command = line.strip()
        if command == "trace" and tracer is None:
            tracer = tracing.Tracer()
            tracer.install()
            print("TRACING", flush=True)
        elif command == "stop":
            break

    started = time.perf_counter()
    handle.close()
    close_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "close_ms": close_ms,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "table": None,
    }
    if tracer is not None:
        tracer.uninstall()
        report["table"] = tracer.table()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.report).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
