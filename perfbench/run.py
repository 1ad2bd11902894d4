"""End-to-end benchmark of round elimination: kernel ladder and service.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (see README.md for why each exists):

* ``kernel-ladder``: cold serial-kernel chains, MIS at Delta=5..7 and
  the Pi_Delta(a, x) family at Delta=7, 8, one fresh process per pass.
* ``service-small``: a fresh server per pass and a seeded stream of
  cheap jobs, renamed duplicates, the quick scenario and malformed
  ``Content-Length`` probes, over HTTP from two client threads.
* ``service-burst``: a fresh server per pass and bursts of one heavy
  ``workers=2`` job, in-flight duplicates of it and cheap jobs queued
  behind them.

Every run times whole passes until ``--seconds`` have elapsed, checks
every output outside timing, and prints as its last stdout line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, host-adjusted by
the probe of ``probe.py``; with ``--trace 1`` passes alternate between
untraced and instrumented ones and the metrics are the per-layer ones
plus the tracing overhead.  Raw figures and the probe median are
printed on the line before, ungated.  ``--self-test`` runs every
workload briefly in both modes and exits 0 only if each is correct and
prints every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("kernel-ladder", "service-small", "service-burst")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.  Times are per pass unless the
#: README says per job; every workload prints all of them, 0 where the
#: workload does not exercise the layer.
PER_LAYER = {
    "re.R_ms": "ms",
    "re.Rbar_ms": "ms",
    "re.rename_ms": "ms",
    "kernel.intern_ms": "ms",
    "kernel.node_max_ms": "ms",
    "kernel.exists_ms": "ms",
    "kernel.edge_max_ms": "ms",
    "kernel.node_max.enumerated": "count",
    "kernel.node_max.yield": "ratio",
    "kernel.galois_miss": "count",
    "kernel.transported": "count",
    "prof.node_max.dfs_ms": "ms",
    "prof.node_max.prune_ms": "ms",
    "prof.node_max.materialize_ms": "ms",
    "api.submit_ms": "ms",
    "api.fetch_ms": "ms",
    "wire.parse_ms": "ms",
    "wire.encode_ms": "ms",
    "orchestrator.queue_wait_ms": "ms",
    "orchestrator.run_ms": "ms",
    "orchestrator.dedup_wait_ms": "ms",
    "service.dedup_ratio": "ratio",
    "jobs.save_ms": "ms",
    "jobs.saves_per_job": "count",
    "cache.fingerprint_ms": "ms",
    "cache.lookup_ms": "ms",
    "cache.hit_ratio": "ratio",
    "runner.chain_ms": "ms",
    "parallel.pool_start_ms": "ms",
    "parallel.map_ms": "ms",
    "parallel.shards": "count",
    "trace.overhead_pct": "%",
}

#: Layer timers (``layers.LayerStats`` names) reported as ms per pass.
_PASS_TIMERS = {
    "re.R_ms": "re.R",
    "re.Rbar_ms": "re.Rbar",
    "re.rename_ms": "re.rename",
    "kernel.intern_ms": "kernel.intern",
    "kernel.node_max_ms": "kernel.node_max",
    "kernel.exists_ms": "kernel.exists",
    "kernel.edge_max_ms": "kernel.edge_max",
    "wire.parse_ms": "wire.parse",
    "wire.encode_ms": "wire.encode",
    "jobs.save_ms": "jobs.save",
    "cache.fingerprint_ms": "cache.fingerprint",
    "cache.lookup_ms": "cache.lookup",
    "runner.chain_ms": "runner.chain",
    "parallel.pool_start_ms": "parallel.pool_start",
    "parallel.map_ms": "parallel.map",
}

#: Section-profiler ops reported as ms per pass.
_PROFILE_OPS = {
    "prof.node_max.dfs_ms": "node_max.dfs",
    "prof.node_max.prune_ms": "node_max.prune",
    "prof.node_max.materialize_ms": "node_max.materialize",
}

#: Host probes taken between passes (and, in the ladder, between jobs).
_PROBES_BETWEEN_PASSES = 4

#: Per-request socket timeout and the wait for a child to exit.
_HTTP_TIMEOUT_S = 120.0
_CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class RunData:
    """What one workload run measured and checked."""

    setups: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    traced_passes: list[float] = field(default_factory=list)
    jobs: list[float] = field(default_factory=list)
    rss_kb: list[int] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    expected_failures: int = 0
    layer_samples: list[dict[str, float]] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def fail(self, message: str, *, expected: bool = False) -> None:
        self.failed += 1
        if expected:
            self.expected_failures += 1
        else:
            self.problems.append(message)


@dataclass
class Context:
    """Run-wide settings and the private temporary directory."""

    seed: int
    seconds: float
    trace: bool
    tmp: Path
    env: dict[str, str]
    min_passes: int = 1


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _spawn(ctx: Context, args: list[str], log_name: str, *, stdin: bool) -> subprocess.Popen:
    log = open(ctx.tmp / log_name, "ab")
    try:
        return subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=log,
            env=ctx.env,
            cwd=str(ROOT),
            start_new_session=True,
            text=True,
        )
    finally:
        log.close()


def _reap(process: subprocess.Popen) -> None:
    """Kill ``process`` and its whole session (pool workers included)."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    for stream in (process.stdin, process.stdout):
        if stream is not None:
            stream.close()


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise BenchError("child printed no report")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# kernel-ladder
# ---------------------------------------------------------------------------

def _ladder_pass(ctx: Context, index: int, traced: bool) -> tuple[float, dict]:
    args = [str(HERE / "ladder_pass.py"), "--seed", str(ctx.seed), "--pass", str(index)]
    if traced:
        args.append("--trace")
    start = time.perf_counter()
    process = _spawn(ctx, args, "ladder.log", stdin=False)
    try:
        assert process.stdout is not None
        if process.stdout.readline().strip() != "ready":
            raise BenchError("ladder pass did not become ready")
        setup = time.perf_counter() - start
        output, _ = process.communicate(timeout=_CHILD_TIMEOUT_S)
        if process.returncode != 0:
            raise BenchError(f"ladder pass exited {process.returncode}")
        return setup, _last_json_line(output)
    finally:
        _reap(process)


def _same_problem(first: Any, second: Any) -> bool:
    from repro.service.wire import render_problem

    left, right = render_problem(first), render_problem(second)
    return (
        sorted(left["alphabet"]) == sorted(right["alphabet"])
        and left["node"] == right["node"]
        and left["edge"] == right["edge"]
    )


def chain_signature(texts: list[str]) -> str:
    """A renaming-invariant digest of a chain's iterates.

    Per iterate: alphabet size, configuration counts, and the sorted
    per-label multiplicity profiles of both constraints.  Label names
    do not enter, so every renaming of a case hashes alike.
    """
    from repro.core.io import problem_from_text

    shape = []
    for text in texts:
        problem = problem_from_text(text)
        profiles: dict[Any, list[list[int]]] = {label: [[], []] for label in problem.alphabet}
        for side, constraint in enumerate((problem.node_constraint, problem.edge_constraint)):
            for configuration in constraint:
                for label, count in configuration.counts().items():
                    profiles[label][side].append(count)
        shape.append([
            len(problem.alphabet),
            len(problem.node_constraint),
            len(problem.edge_constraint),
            sorted([sorted(node), sorted(edge)] for node, edge in profiles.values()),
        ])
    return hashlib.sha256(json.dumps(shape).encode("utf-8")).hexdigest()[:16]


def _check_ladder(data: RunData, reports: list[tuple[bool, dict]]) -> None:
    import inputs
    from repro.core.io import problem_from_text
    from repro.scenarios.runner import run_problem_chain

    first_untraced = next(report for traced, report in reports if not traced)
    baseline = {job["case"]: job for job in first_untraced["jobs"]}
    semantic: dict[bool, dict] = {}
    for traced, report in reports:
        if semantic.setdefault(traced, report["semantic"]) != report["semantic"]:
            data.problems.append("semantic trace counters differ between passes")
        for job in report["jobs"]:
            reference = baseline[job["case"]]
            ok = len(job["outputs"]) == len(reference["outputs"])
            ok = ok and job["certified"] == reference["certified"]
            ok = ok and job["outputs"][0] == job["input"]
            for mine, theirs in zip(job["outputs"], reference["outputs"]):
                if not ok:
                    break
                found = problem_from_text(mine).find_isomorphism(problem_from_text(theirs))
                ok = found is not None
            if not ok:
                data.fail(f"{job['case']}: output not isomorphic to the first pass")
            elif chain_signature(job["outputs"]) != inputs.LADDER_SIGNATURES[job["case"]]:
                data.fail(f"{job['case']}: chain differs from its recorded signature")
    for case in inputs.LADDER_REFERENCE_CASES:
        job = baseline[case]
        operator, steps = next(
            (operator, steps) for name, _, _, operator, steps in inputs.LADDER_CASES
            if name == case
        )
        outcome = run_problem_chain(
            problem_from_text(job["input"]), operator=operator, steps=steps
        )
        kernel = [problem_from_text(text) for text in job["outputs"]]
        if len(kernel) != len(outcome.problems) or not all(
            _same_problem(mine, theirs) for mine, theirs in zip(kernel, outcome.problems)
        ):
            data.fail(f"{case}: kernel output differs from the reference engine")
        if outcome.certified_rounds != job["certified"]:
            data.fail(f"{case}: certified rounds differ from the reference engine")


def _ladder_layers(report: dict) -> dict[str, float]:
    values = _layer_values(report["layers"], report["counters"])
    profile = report["profile"]
    for metric, op in _PROFILE_OPS.items():
        values[metric] = profile.get(op, {}).get("wall_ns", 0) / 1e6
    return values


def run_kernel_ladder(ctx: Context) -> RunData:
    import inputs

    data = RunData()
    reports: list[tuple[bool, dict]] = []
    started = time.perf_counter()
    index = 0
    while index < ctx.min_passes or time.perf_counter() - started < ctx.seconds:
        traced = ctx.trace and index % 2 == 1
        data.attempted += len(inputs.LADDER_CASES)
        try:
            setup, report = _ladder_pass(ctx, index, traced)
        except (BenchError, subprocess.TimeoutExpired, ValueError) as error:
            for _ in inputs.LADDER_CASES:
                data.fail(f"ladder pass {index}: {error}")
            index += 1
            continue
        reports.append((traced, report))
        data.probes.extend(report["probes"])
        pass_seconds = sum(job["seconds"] for job in report["jobs"])
        if traced:
            data.traced_passes.append(pass_seconds)
            data.layer_samples.append(_ladder_layers(report))
        else:
            data.setups.append(setup)
            data.passes.append(pass_seconds)
            data.jobs.extend(job["seconds"] for job in report["jobs"])
            data.rss_kb.append(report["peak_rss_kb"])
        index += 1
    if any(not traced for traced, _ in reports):
        _check_ladder(data, reports)
    else:
        data.problems.append("no untraced ladder pass completed")
    data.info["jobs_per_pass"] = len(inputs.LADDER_CASES)
    return data


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

def _connection(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=_HTTP_TIMEOUT_S)


def _request(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, Any]:
    connection = _connection(port)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _follow_events(port: int, job_id: str, *, until_claimed: bool = False) -> None:
    """Read ``/v1/jobs/<id>/events`` to its end (the terminal event).

    With ``until_claimed`` stop at the first record after the
    ``running`` state event: the orchestrator emits it only after the
    job claimed its dedup key, so duplicates sent afterwards are
    guaranteed to find this job in flight.
    """
    connection = _connection(port)
    try:
        connection.request("GET", f"/v1/jobs/{job_id}/events")
        response = connection.getresponse()
        if response.status != 200:
            raise BenchError(f"events of {job_id}: HTTP {response.status}")
        seen = 0
        for line in response:
            if not line.strip():
                continue
            seen += 1
            if until_claimed and seen >= 2:
                return
    finally:
        connection.close()


def _malformed_post(port: int) -> tuple[int, Any]:
    """POST with a non-numeric ``Content-Length``; a typed 4xx is expected."""
    connection = _connection(port)
    try:
        connection.putrequest("POST", "/v1/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", "twelve")
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


@dataclass
class JobResult:
    """One job as the client saw it."""

    body: dict
    started: float = 0.0
    status: int = 0
    document: dict | None = None
    seconds: float = 0.0
    submit_s: float = 0.0
    fetch_s: float = 0.0
    error: str | None = None
    malformed: bool = False


class JobClient:
    """Submit, follow and fetch jobs, timing each step."""

    def __init__(self, port: int) -> None:
        self.port = port

    def submit(self, result: JobResult) -> str | None:
        result.started = time.perf_counter()
        try:
            status, document = _request(self.port, "POST", "/v1/jobs", result.body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            result.error = f"submit: {type(error).__name__}: {error}"
            return None
        result.submit_s = time.perf_counter() - result.started
        if status != 202:
            result.error = f"submit: HTTP {status}: {document}"
            return None
        return str(document["job_id"])

    def fetch(self, result: JobResult, job_id: str) -> None:
        try:
            _follow_events(self.port, job_id)
            start = time.perf_counter()
            result.status, result.document = _request(self.port, "GET", f"/v1/jobs/{job_id}")
            done = time.perf_counter()
        except (OSError, http.client.HTTPException, ValueError, BenchError) as error:
            result.error = f"fetch: {type(error).__name__}: {error}"
            return
        result.fetch_s = done - start
        result.seconds = done - result.started

    def run(self, result: JobResult) -> None:
        job_id = self.submit(result)
        if job_id is not None:
            self.fetch(result, job_id)


@dataclass
class Server:
    """One launched service process."""

    process: subprocess.Popen
    port: int
    setup: float


def _boot(ctx: Context, pass_dir: Path, traced: bool) -> Server:
    args = [str(HERE / "launcher.py"), "--dir", str(pass_dir)]
    if traced:
        args.append("--trace")
    start = time.perf_counter()
    process = _spawn(ctx, args, "server.log", stdin=True)
    try:
        assert process.stdout is not None
        words = process.stdout.readline().split()
        if len(words) != 2 or words[0] != "ready":
            raise BenchError("server did not report its port")
        port = int(words[1])
        deadline = time.perf_counter() + 60.0
        while True:
            try:
                status, _ = _request(port, "GET", "/v1/healthz")
                if status == 200:
                    break
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                raise BenchError("server never answered /v1/healthz")
            time.sleep(0.005)
        return Server(process=process, port=port, setup=time.perf_counter() - start)
    except BaseException:
        _reap(process)
        raise


def _shutdown(server: Server) -> dict:
    """Stop the server via stdin EOF; its final report."""
    process = server.process
    try:
        output, _ = process.communicate(input="", timeout=_CHILD_TIMEOUT_S)
        if process.returncode != 0:
            raise BenchError(f"server exited {process.returncode}")
        return _last_json_line(output)
    finally:
        _reap(process)


def _layer_values(snapshot: dict, counters: dict[str, int]) -> dict[str, float]:
    """The layer timers of one pass, plus the prune and trace counts."""
    values = {
        metric: snapshot["ns"].get(timer, 0) / 1e6 for metric, timer in _PASS_TIMERS.items()
    }
    enumerated = snapshot["counts"].get("kernel.node_max.enumerated", 0)
    survivors = snapshot["counts"].get("kernel.node_max.survivors", 0)
    values["kernel.node_max.enumerated"] = float(enumerated)
    values["kernel.node_max.yield"] = survivors / enumerated if enumerated else 0.0
    values["kernel.galois_miss"] = float(counters.get("galois.cache.miss", 0))
    values["kernel.transported"] = float(counters.get("kernel.intern.transported", 0))
    values["parallel.shards"] = float(counters.get("mp.shards", 0))
    return values


def _service_layers(report: dict, results: list[JobResult]) -> dict[str, float]:
    """Per-layer values of one instrumented service pass."""
    documents = [result.document for result in results if result.document]
    counters: dict[str, int] = {}
    for document in documents:
        for name, value in document.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    values = _layer_values(report["layers"], counters)
    lookups = counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
    values["cache.hit_ratio"] = counters.get("cache.hit", 0) / lookups if lookups else 0.0
    jobs = len(documents)
    values["service.dedup_ratio"] = (
        sum(1 for document in documents if document.get("deduped")) / jobs if jobs else 0.0
    )
    values["jobs.saves_per_job"] = (
        report["layers"]["calls"].get("jobs.save", 0) / jobs if jobs else 0.0
    )
    values["api.submit_ms"] = 1000 * _median([r.submit_s for r in results if r.document])
    values["api.fetch_ms"] = 1000 * _median([r.fetch_s for r in results if r.document])
    timeline = report["timeline"]
    queue_waits, runs, dedup_waits = [], [], []
    for entry in timeline.values():
        terminal = entry.get("done", entry.get("failed"))
        if "queued" in entry and "running" in entry:
            queue_waits.append((entry["running"] - entry["queued"]) / 1e6)
        if "running" in entry and terminal is not None:
            runs.append((terminal - entry["running"]) / 1e6)
        primary = timeline.get(entry.get("deduped_from") or "", {})
        primary_end = primary.get("done", primary.get("failed"))
        if primary_end is not None and "running" in entry:
            dedup_waits.append(max(0.0, (primary_end - entry["running"]) / 1e6))
    values["orchestrator.queue_wait_ms"] = _median(queue_waits)
    values["orchestrator.run_ms"] = _median(runs)
    values["orchestrator.dedup_wait_ms"] = _median(dedup_waits)
    return values


def _run_service(
    ctx: Context, data: RunData, one_pass: Any
) -> list[tuple[bool, list[JobResult]]]:
    """Boot a fresh server per pass and drive ``one_pass`` against it.

    Probes run between passes, while no server process exists.
    Returns ``(traced, job results)`` of every pass for checking.
    """
    passes: list[tuple[bool, list[JobResult]]] = []
    started = time.perf_counter()
    index = 0
    while index < ctx.min_passes or time.perf_counter() - started < ctx.seconds:
        data.probes.extend(_probe_samples())
        traced = ctx.trace and index % 2 == 1
        pass_dir = ctx.tmp / f"pass-{index}"
        server = _boot(ctx, pass_dir, traced)
        try:
            pass_start = time.perf_counter()
            results = one_pass(server.port)
            pass_seconds = time.perf_counter() - pass_start
        finally:
            report = _shutdown(server)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if traced:
            data.traced_passes.append(pass_seconds)
            data.layer_samples.append(
                _service_layers(report, [r for r in results if not r.malformed])
            )
        else:
            data.setups.append(server.setup)
            data.passes.append(pass_seconds)
            data.rss_kb.append(report["peak_rss_kb"])
        passes.append((traced, results))
        index += 1
    data.probes.extend(_probe_samples())
    return passes


def _probe_samples() -> list[float]:
    import probe

    return probe.probe(_PROBES_BETWEEN_PASSES)


# ---------------------------------------------------------------------------
# Result checks shared by the service workloads
# ---------------------------------------------------------------------------

class Expectations:
    """Results computed in-process, apart from the service, memoized."""

    def __init__(self) -> None:
        self._memo: dict[str, Any] = {}

    def result(self, body: dict, *, use_kernel: bool = False) -> dict:
        """The rendered result of ``body`` computed in this process."""
        from repro.scenarios import find_scenario, run_problem_chain, run_scenario
        from repro.service import parse_job_request
        from repro.service.orchestrator import resolve_request
        from repro.service.wire import render_result

        key = json.dumps([body, use_kernel], sort_keys=True)
        if key not in self._memo:
            request = parse_job_request(body)
            if request.scenario is not None:
                _, spec = find_scenario(request.scenario)
                run = run_scenario(spec, use_kernel=use_kernel)
                self._memo[key] = render_result(
                    run.problems, run.reached_fixed_point, run.certified_rounds, run.failures
                )
            else:
                problem, operator, steps, policy = resolve_request(request)
                outcome = run_problem_chain(
                    problem, operator=operator, steps=steps, policy=policy,
                    use_kernel=use_kernel,
                )
                self._memo[key] = render_result(
                    outcome.problems, outcome.reached_fixed_point,
                    outcome.certified_rounds, [],
                )
        return self._memo[key]


def _problem_of(rendered: dict) -> Any:
    from repro.core.problem import Problem

    return Problem.from_text(rendered["node"], rendered["edge"])


def _sent_problem(body: dict) -> Any:
    from repro.core.io import problem_from_text

    return problem_from_text(body["problem"])


def _isomorphic_results(first: dict, second: dict) -> bool:
    if first["steps"] != second["steps"] or first["certified_rounds"] != second["certified_rounds"]:
        return False
    return all(
        _problem_of(mine).find_isomorphism(_problem_of(theirs)) is not None
        for mine, theirs in zip(first["problems"], second["problems"])
    )


def _check_job(
    data: RunData, result: JobResult, expected: dict | None, *, deduped: bool,
    expected_from: str | None = None,
) -> bool:
    """Count ``result`` failed unless it matches; ``True`` when it does."""
    document = result.document
    label = result.body.get("scenario") or result.body.get("operator")
    if result.error is not None or document is None:
        data.fail(f"{label}: no typed answer ({result.error})")
        return False
    if document.get("state") != "done" or result.status != 200:
        data.fail(f"{label}: job ended {document.get('state')}: {document.get('error')}")
        return False
    if document.get("deduped") is not deduped:
        data.fail(f"{label}: deduped={document.get('deduped')}, expected {deduped}")
        return False
    if expected_from is not None and document.get("deduped_from") != expected_from:
        data.fail(f"{label}: deduped from the wrong primary")
        return False
    if expected is not None and document["result"] != expected:
        data.fail(f"{label}: result differs from the in-process run")
        return False
    return True


# ---------------------------------------------------------------------------
# service-small
# ---------------------------------------------------------------------------

def _small_pass(port: int, ops: list) -> list[JobResult]:
    client = JobClient(port)
    results = [JobResult(body=dict(op.body)) for op in ops]
    finished = [threading.Event() for _ in ops]
    cursor = iter(range(len(ops)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            op, result = ops[index], results[index]
            try:
                if op.primary is not None:
                    finished[op.primary].wait(_HTTP_TIMEOUT_S)
                if op.malformed:
                    result.malformed = True
                    try:
                        result.status, result.document = _malformed_post(port)
                    except (OSError, http.client.HTTPException, ValueError) as error:
                        result.error = f"{type(error).__name__}: {error}"
                else:
                    client.run(result)
            finally:
                finished[index].set()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def run_service_small(ctx: Context) -> RunData:
    import inputs
    from repro.scenarios import find_scenario

    data = RunData()
    ops = inputs.small_ops(ctx.seed)
    passes = _run_service(ctx, data, lambda port: _small_pass(port, ops))
    expectations = Expectations()
    certified = find_scenario(inputs.QUICK_SCENARIO)[1].certified
    for traced, results in passes:
        job_ids = [r.document.get("job_id") if r.document else None for r in results]
        for op, result in zip(ops, results):
            data.attempted += 1
            if op.malformed:
                document = result.document
                typed = (
                    result.error is None and 400 <= result.status < 500
                    and isinstance(document, dict) and "type" in document
                )
                if not typed:
                    data.fail("malformed Content-Length got no typed 4xx", expected=True)
                continue
            if not traced:
                data.jobs.append(result.seconds)
            is_duplicate = op.primary is not None
            ok = _check_job(
                data, result, expectations.result(op.body), deduped=is_duplicate,
                expected_from=job_ids[op.primary] if is_duplicate else None,
            )
            if ok and "scenario" in op.body:
                outcome = result.document["result"]
                if not outcome["ok"] or outcome["certified_rounds"] != certified:
                    data.fail(f"{op.body['scenario']}: registry expectations not met")
    data.info["ops_per_pass"] = len(ops)
    data.info["malformed_per_pass"] = inputs.MALFORMED_PER_PASS
    return data


# ---------------------------------------------------------------------------
# service-burst
# ---------------------------------------------------------------------------

@dataclass
class BurstResults:
    """The client's view of one burst's jobs."""

    heavy: JobResult
    duplicates: list[JobResult]
    cheap: list[JobResult]

    def all(self) -> list[JobResult]:
        return [self.heavy, *self.duplicates, *self.cheap]


def _burst(port: int, burst: Any) -> BurstResults:
    client = JobClient(port)
    results = BurstResults(
        heavy=JobResult(body=burst.heavy),
        duplicates=[JobResult(body=body) for body in burst.duplicates],
        cheap=[JobResult(body=body) for body in burst.cheap],
    )
    duplicates_sent = threading.Event()

    def first_connection() -> None:
        try:
            heavy_id = client.submit(results.heavy)
            if heavy_id is None:
                return
            try:
                _follow_events(port, heavy_id, until_claimed=True)
            except (OSError, http.client.HTTPException, BenchError) as error:
                results.heavy.error = f"events: {error}"
                return
            duplicate_ids = [client.submit(result) for result in results.duplicates]
            duplicates_sent.set()
            client.fetch(results.heavy, heavy_id)
            for result, job_id in zip(results.duplicates, duplicate_ids):
                if job_id is not None:
                    client.fetch(result, job_id)
        finally:
            duplicates_sent.set()

    def second_connection() -> None:
        duplicates_sent.wait(_HTTP_TIMEOUT_S)
        cheap_ids = [client.submit(result) for result in results.cheap]
        for result, job_id in zip(results.cheap, cheap_ids):
            if job_id is not None:
                client.fetch(result, job_id)

    threads = [threading.Thread(target=first_connection), threading.Thread(target=second_connection)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def run_service_burst(ctx: Context) -> RunData:
    import inputs

    data = RunData()
    plan = inputs.burst_plan(ctx.seed)
    flat: list[BurstResults] = []
    probes: list[float] = []

    def one_pass(port: int) -> list[JobResult]:
        bursts = []
        for burst in plan:
            bursts.append(_burst(port, burst))
            # The server is idle between bursts: probe the host there too.
            probes.extend(_probe_samples())
        flat.extend(bursts)
        return [result for burst in bursts for result in burst.all()]

    passes = _run_service(ctx, data, one_pass)
    data.probes.extend(probes)
    expectations = Expectations()
    cheap_times: list[float] = []
    for number, burst in enumerate(flat):
        traced = passes[number // len(plan)][0]
        data.attempted += len(burst.all())
        if not traced:
            data.jobs.extend(result.seconds for result in burst.all())
            cheap_times.extend(result.seconds for result in burst.cheap)
        heavy_expected = expectations.result(burst.heavy.body, use_kernel=True)
        heavy_ok = _check_job(data, burst.heavy, heavy_expected, deduped=False)
        heavy_id = burst.heavy.document.get("job_id") if burst.heavy.document else None
        for duplicate in burst.duplicates:
            if _check_job(data, duplicate, None, deduped=True, expected_from=heavy_id):
                served_input = _problem_of(duplicate.document["result"]["problems"][0])
                consistent = heavy_ok and _isomorphic_results(
                    duplicate.document["result"], heavy_expected
                ) and _same_problem(served_input, _sent_problem(duplicate.body))
                if not consistent:
                    data.fail("in-flight duplicate result is not the primary's, renamed")
        for result in burst.cheap:
            _check_job(data, result, expectations.result(result.body), deduped=False)
    data.info["cheap_in_burst_ms"] = round(1000 * _median(cheap_times), 2)
    return data


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

RUNNERS = {
    "kernel-ladder": run_kernel_ladder,
    "service-small": run_service_small,
    "service-burst": run_service_burst,
}


def _metrics(data: RunData, trace: bool) -> tuple[dict, dict]:
    """``(gated metrics, raw figures)`` of a finished run."""
    import probe

    factor = probe.host_factor(data.probes)
    raw = {
        "setup_s": _median(data.setups),
        "pass_s": _median(data.passes),
        "job_p50_ms": 1000 * _median(data.jobs),
        "job_p90_ms": 1000 * _p90(data.jobs),
    }
    info = {
        "raw": raw,
        "probe_median_s": statistics.median(data.probes),
        "reference_probe_s": probe.REFERENCE_PROBE_S,
        "host_factor": factor,
        "passes": len(data.passes),
        "traced_passes": len(data.traced_passes),
        "job_samples": len(data.jobs),
        "setup_samples": len(data.setups),
        **data.info,
    }
    if not trace:
        values = {name: value * factor for name, value in raw.items()}
        values["peak_rss_mb"] = _median([kb / 1024 for kb in data.rss_kb])
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}, info
    merged: dict[str, float] = {}
    for metric in PER_LAYER:
        samples = [sample[metric] for sample in data.layer_samples if metric in sample]
        merged[metric] = _median(samples)
    untraced, traced = _median(data.passes), _median(data.traced_passes)
    merged["trace.overhead_pct"] = 100 * (traced / untraced - 1) if untraced else 0.0
    return {name: {"value": merged[name], "unit": unit} for name, unit in PER_LAYER.items()}, info


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a private temporary directory; the result object."""
    tmp = ROOT / ".perfbench-tmp" / f"{workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    (tmp / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE_DIR": str(tmp / "cache"),
        "TMPDIR": str(tmp / "tmp"),
        # One hash layout for every child: set and dict orders, and with
        # them memory peaks, otherwise vary from process to process.
        "PYTHONHASHSEED": "0",
    })
    ctx = Context(
        seed=seed, seconds=seconds, trace=trace, tmp=tmp, env=env,
        min_passes=2 if trace else 1,
    )
    try:
        data = RUNNERS[workload](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    metrics, info = _metrics(data, trace)
    info["problems"] = data.problems[:10]
    return {
        "info": info,
        "result": {
            "correct": not data.problems and data.failed == data.expected_failures,
            "attempted": data.attempted,
            "failed": data.failed,
            "metrics": metrics,
        },
    }


def self_test() -> int:
    """Every workload briefly, untraced and traced; 0 when all pass."""
    status = 0
    for workload in WORKLOADS:
        for trace, names in ((False, END_TO_END), (True, PER_LAYER)):
            outcome = run_workload(workload, seed=1, seconds=0.0, trace=trace)
            result = outcome["result"]
            missing = sorted(set(names) - set(result["metrics"]))
            ok = result["correct"] and result["attempted"] > 0 and not missing
            sys.stdout.write(
                f"{'ok' if ok else 'FAIL'} {workload} trace={int(trace)} "
                f"attempted={result['attempted']} failed={result['failed']}"
                f"{' problems=' + str(outcome['info']['problems']) if not ok else ''}\n"
            )
            status |= 0 if ok else 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    # Children run in their own sessions; turn SIGTERM into an exit so
    # the cleanup in ``finally`` blocks still reaps them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps({"info": outcome["info"]}) + "\n")
    sys.stdout.write(json.dumps(outcome["result"]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
