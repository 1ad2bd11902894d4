"""One ``kernel-ladder`` pass in a fresh process.

Started by ``run.py`` with ``--seed``/``--pass`` (and ``--trace`` for a
traced pass).  It imports the engine, builds its seeded inputs, writes
``ready`` on stdout (the parent times launch -> ready as set-up), then
runs every case cold through ``run_problem_chain`` on the serial
kernel, clearing the transport registry before each, and times a host
probe between jobs.  The last stdout line is one JSON report: per-job
seconds, probe times, peak RSS, each output in text form, and the
semantic trace counters of an untimed traced Delta=5 run (all jobs'
counters on a traced pass).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.io import problem_to_text  # noqa: E402
from repro.core.kernel.interning import transport_registry  # noqa: E402
from repro.observability.metrics import semantic_profile, total_counters  # noqa: E402
from repro.observability.profiling import Profiler, profiling  # noqa: E402
from repro.observability.trace import Tracer, tracing  # noqa: E402
from repro.scenarios.runner import run_problem_chain  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402


def _run_case(problem, operator: str, steps: int):  # type: ignore[no-untyped-def]
    transport_registry().clear()
    return run_problem_chain(problem, operator=operator, steps=steps, use_kernel=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    cases = inputs.ladder_inputs(args.seed, args.pass_index)
    stats = layers.LayerStats()
    if args.trace:
        layers.install_kernel_layers(stats)
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    jobs = []
    probes = probe.probe(4)
    tracer = Tracer() if args.trace else None
    profiler = Profiler() if args.trace else None
    for case, problem, operator, steps in cases:
        if tracer is not None and profiler is not None:
            with tracing(tracer), profiling(profiler):
                start = time.perf_counter()
                outcome = _run_case(problem, operator, steps)
                seconds = time.perf_counter() - start
        else:
            start = time.perf_counter()
            outcome = _run_case(problem, operator, steps)
            seconds = time.perf_counter() - start
        jobs.append({
            "case": case,
            "seconds": seconds,
            "input": problem_to_text(problem),
            "outputs": [problem_to_text(item) for item in outcome.problems],
            "certified": outcome.certified_rounds,
        })
        probes.extend(probe.probe(4))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None and profiler is not None:
        records = tracer.finish()
        semantic = semantic_profile(records)
        counters = total_counters(records)
        prof = profiler.snapshot()
    else:
        # Untimed traced rerun of the cheapest case: its semantic
        # counters must repeat exactly from pass to pass.
        check_tracer = Tracer()
        _, problem, operator, steps = cases[0]
        with tracing(check_tracer):
            _run_case(problem, operator, steps)
        semantic = semantic_profile(check_tracer.finish())
        counters = {}
        prof = {}
    report = {
        "jobs": jobs,
        "probes": probes,
        "peak_rss_kb": peak_rss_kb,
        "semantic": semantic,
        "counters": counters,
        "profile": prof,
        "layers": stats.snapshot(),
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
