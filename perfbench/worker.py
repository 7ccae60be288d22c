"""exec: worker for the run-exec workload.

Runs ``dsekit.mock_worker --model synthetic`` unchanged, except that each
request first does a fixed amount of CPU-bound work (about 1 ms on the
host the benchmark was sized on), standing in for a simulator's service
time. The work is a
fixed loop, not a sleep, so a pool of workers cannot scale past the cores.

    python3 perfbench/worker.py --pid-dir DIR

On start the worker creates a file named after its pid in DIR, so the
benchmark can count spawns. After each request it overwrites that file
with ``RECORD``: the requests served and their total service seconds. The
record is rewritten every time because the CLI ends its worker with
SIGKILL. The ``dsekit`` package must be importable.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from pathlib import Path

from dsekit import mock_worker

SERVICE_LOOPS = 20_000
RECORD = struct.Struct("<qd")


def service() -> int:
    """The fixed CPU-bound work done once per request."""
    total = 0
    for i in range(SERVICE_LOOPS):
        total += i
    return total


def main(argv: list[str]) -> None:
    if len(argv) != 2 or argv[0] != "--pid-dir":
        sys.exit("usage: worker.py --pid-dir DIR")
    record = os.open(Path(argv[1]) / str(os.getpid()), os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
    served, busy = 0, 0.0
    model = mock_worker._synthetic_metrics

    def timed_model(config: dict, benchmark: str) -> dict[str, float]:
        nonlocal served, busy
        t0 = time.perf_counter()
        service()
        busy += time.perf_counter() - t0
        served += 1
        os.pwrite(record, RECORD.pack(served, busy), 0)
        return model(config, benchmark)

    mock_worker._synthetic_metrics = timed_model
    mock_worker.main(["--model", "synthetic"], prog_name="mock_worker")


if __name__ == "__main__":
    main(sys.argv[1:])
