"""Paths and set-up steps shared by the workloads."""

import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def cold_import_s() -> float:
    """Seconds for a fresh interpreter to import the package, as every
    `sentinel` process does before its first step."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import blocksentinel"],
        check=True,
        timeout=120,
    )
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
