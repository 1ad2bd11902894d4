"""Boot one ``ReproService`` for a service pass, optionally instrumented.

Usage: ``launcher.py --dir JOBDIR [--trace]``.  Binds an ephemeral
port, writes ``ready <port>`` on stdout, serves until stdin closes,
then stops the service and writes one JSON line: the process's peak
RSS and, with ``--trace``, the per-layer timers plus per-job state
timestamps taken from ``JobStore.save`` (each save records the state
the job just reached: queued at submit, running, then terminal).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.service import ReproService  # noqa: E402
from repro.service.jobs import JobStore  # noqa: E402

import layers  # noqa: E402


def _instrument(stats: layers.LayerStats, timeline: dict[str, dict[str, Any]]) -> None:
    layers.install_kernel_layers(stats)
    layers.install_service_layers(stats)
    save = JobStore.save

    def timed_save(store: JobStore, record: Any) -> None:
        start = time.perf_counter_ns()
        save(store, record)
        done = time.perf_counter_ns()
        stats.add_time("jobs.save", done - start)
        entry = timeline.setdefault(record.job_id, {})
        entry.setdefault(record.state, done)
        if record.deduped_from is not None:
            entry["deduped_from"] = record.deduped_from

    JobStore.save = timed_save  # type: ignore[method-assign]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    stats = layers.LayerStats()
    timeline: dict[str, dict[str, Any]] = {}
    if args.trace:
        _instrument(stats, timeline)
    service = ReproService(args.dir, port=0, workers=2).start()
    try:
        sys.stdout.write(f"ready {service.port}\n")
        sys.stdout.flush()
        # Kernel pools fork from worker threads, and a forked child first
        # closes its inherited sys.stdin; had a thread been inside a
        # stdin call at that moment, the child would deadlock on the
        # buffer's lock.  So wait for EOF on the raw descriptor and hide
        # the object from the children.
        stdin, sys.stdin = sys.stdin, None  # type: ignore[assignment]
        while os.read(stdin.fileno(), 4096):
            pass
    finally:
        service.stop()
    report = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": stats.snapshot(),
        "timeline": timeline,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
