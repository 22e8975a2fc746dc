"""The four workloads and the metrics computed from them.

Every workload returns a :class:`Run`: one row per measured operation
(its corpus slot, cycle, program time and, if wrong, why), set-up samples,
peak memory and -- for a traced run -- the span summary.  End-to-end
numbers are only taken from untraced runs.

In-process workloads (``nbl-paper``, ``files-large``, ``files-hard``) work
in *cycles*: one pass over the corpus, with fresh noise seeds or fresh
scrambles per cycle, repeated until ``seconds`` have passed.  Throughput
uses the median time of each corpus slot across cycles, so one burst of
interference from the machine does not move it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import checks
import corpus
import loadgen
import spans

NBL_SAMPLES = 1_000_000
NBL_BLOCK = 100_000
#: Open-loop arrival rate of ``service-mix`` (requests/s): about 15% of the
#: closed-loop throughput.  At about half of it (110/s), queueing behind
#: cold solves moved the p50 between 5 and 17 ms from one seed to the next.
OPEN_LOOP_RPS = 40
#: Outstanding requests in the closed loop (two per connection).
CLOSED_WINDOW = 4
#: Requests of the closed-loop calibration used to measure tracing overhead.
CALIBRATION_REQUESTS = 200
SETUP_REPEATS = 5


@dataclass
class Op:
    slot: str
    cycle: int
    seconds: float
    error: str = ""
    checks: int = 0
    samples: int = 0


@dataclass
class Run:
    workload: str
    ops: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    latencies_ms: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error)


def cpus() -> list:
    """The CPUs this process may run on (empty where affinity is unsupported)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def pin(pid: int, cpu) -> None:
    """Keep ``pid`` on one CPU: on a shared VM, moving between vCPUs adds noise."""
    if cpu is not None:
        os.sched_setaffinity(pid, {cpu})


def _seed_int(*parts) -> int:
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _model_ints(values: dict) -> list:
    return [v if b else -v for v, b in values.items()]


def _own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(root: str, kind: str, repeats: int = SETUP_REPEATS) -> list:
    """Seconds from process start until ``ready.py`` can take its first input."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(root, "perfbench", "ready.py"), kind],
            cwd=root, env=env, stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - started)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe {kind!r} failed: {line!r}")
    return samples


def _cycles(seconds, cycles, do_cycle):
    """Corpus passes until ``seconds`` are up (the first pass always completes).

    ``do_cycle(cycle, out_of_time)`` checks ``out_of_time()`` before each
    operation, so a run overshoots ``seconds`` by at most one operation.
    With ``cycles`` set, exactly that many whole passes run instead.
    """
    deadline = time.perf_counter() + seconds
    cycle = 0
    while cycles is None or cycle < cycles:
        if cycles is None:
            done = do_cycle(cycle, lambda: cycle > 0 and time.perf_counter() >= deadline)
        else:
            done = do_cycle(cycle, lambda: False)
        if done is False:
            return
        cycle += 1
        if cycles is None and time.perf_counter() >= deadline:
            return


def _in_process(run, seconds, cycles, trace, do_cycle):
    """Run cycles; when tracing, time cycle 0 untraced first (the overhead base)."""
    if not trace:
        _cycles(seconds, cycles, do_cycle)
        return
    do_cycle(0, lambda: False)
    untraced = sum(op.seconds for op in run.ops)
    run.ops.clear()
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        _cycles(seconds, cycles, do_cycle)
    finally:
        installed.uninstall()
    traced = sum(op.seconds for op in run.ops if op.cycle == 0)
    run.trace = tracer.summary()
    run.extra["trace_overhead_share"] = traced / untraced - 1.0


# -- nbl-paper -------------------------------------------------------------------


def nbl_solver():
    """Algorithm 1 + 2 through ``NBLSATSolver(engine="sampled")`` at a fixed budget."""
    from repro import NBLSATSolver
    from repro.core.config import NBLConfig
    from repro.noise import BipolarCarrier, UniformCarrier

    carriers = {"uniform-0.5": UniformCarrier(half_width=0.5), "bipolar": BipolarCarrier()}

    def solve(inst, formula, noise_seed):
        config = NBLConfig(
            carrier=carriers[inst.tags["carrier"]],
            max_samples=NBL_SAMPLES,
            block_size=NBL_BLOCK,
            convergence="fixed",
            seed=noise_seed,
        )
        result = NBLSATSolver(engine="sampled", config=config).solve(formula)
        model = None
        if result.assignment is not None:
            model = _model_ints(result.assignment.as_dict())
        status = "SAT" if result.satisfiable else "UNSAT"
        return status, model, len(result.checks), result.total_samples

    return solve


def run_nbl(root, seed, seconds, trace, cycles=None, solve=None,
            setup_repeats=SETUP_REPEATS) -> Run:
    from repro.cnf.formula import CNFFormula
    from repro.core.symbolic import SymbolicNBLEngine

    run = Run("nbl-paper")
    pin(0, (cpus() or [None])[0])
    run.setup = measure_setup(root, "nbl", setup_repeats)
    solve = solve or nbl_solver()
    instances = corpus.nbl_paper()
    run.extra["manifest"] = [i.manifest() for i in instances]
    formulas = {i.name: CNFFormula.from_ints(i.clauses, i.num_variables) for i in instances}
    # The exact engine is the reference every sampled verdict must match.
    exact = {
        name: "SAT" if SymbolicNBLEngine(f).check().satisfiable else "UNSAT"
        for name, f in formulas.items()
    }

    def do_cycle(cycle, out_of_time):
        for inst in instances:
            if out_of_time():
                return False
            started = time.perf_counter()
            status, model, n_checks, samples = solve(
                inst, formulas[inst.name], _seed_int(seed, cycle, inst.name)
            )
            elapsed = time.perf_counter() - started
            error = checks.check_verdict(status, model, inst.clauses, inst.expect)
            if not error and status != exact[inst.name]:
                error = f"{status} but the exact engine says {exact[inst.name]}"
            run.ops.append(Op(inst.name, cycle, elapsed, error, n_checks, samples))

    _in_process(run, seconds, cycles, trace, do_cycle)
    # Every check of one solve does identical work (same formula, same
    # fixed budget), so each check's latency is the solve time / checks.
    for op in run.ops:
        run.latencies_ms.extend([op.seconds / op.checks * 1e3] * op.checks)
    run.peak_rss_mb = _own_peak_rss_mb()
    return run


# -- files-large / files-hard ------------------------------------------------------


def batch_solver():
    """One file through ``BatchRunner(solver="cdcl", preprocess=True).run([path])``."""
    from repro.runtime import BatchRunner

    def solve(path):
        outcome = BatchRunner(solver="cdcl", preprocess=True).run([path]).outcomes[0]
        model = list(outcome.assignment) if outcome.assignment is not None else None
        return outcome.status, model

    return solve


def run_files(root, workload, seed, seconds, trace, work_dir, cycles=None, solve=None,
              setup_repeats=SETUP_REPEATS) -> Run:
    run = Run(workload)
    pin(0, (cpus() or [None])[0])
    run.setup = measure_setup(root, "files", setup_repeats)
    solve = solve or batch_solver()
    make = corpus.files_large if workload == "files-large" else corpus.files_hard
    certificates = checks.Certificates(
        os.path.join(root, ".perfbench_cache", "certificates.json")
    )
    os.makedirs(work_dir, exist_ok=True)
    first = make(seed, 0)
    run.extra["manifest"] = [i.manifest() for i in first]
    for inst in first:  # certify base draws once, before any timing
        if "base" in inst.tags:
            certificates.status(*corpus.hard_random_base(inst.tags["base"]))

    def expected(inst):
        if inst.expect != "?" or "base" not in inst.tags:
            return inst.expect
        # A scramble keeps satisfiability, so the base draw's certificate holds.
        return certificates.status(*corpus.hard_random_base(inst.tags["base"]))

    def do_cycle(cycle, out_of_time):
        for inst in make(seed, cycle):
            if out_of_time():
                return False
            expect = expected(inst)
            path = os.path.join(work_dir, f"{inst.name}.cnf")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(inst.dimacs())
            started = time.perf_counter()
            status, model = solve(path)
            elapsed = time.perf_counter() - started
            os.remove(path)
            if status == "UNSAT" and expect == "?":
                expect = certificates.status(inst.num_variables, inst.clauses)
            error = checks.check_verdict(status, model, inst.clauses, expect)
            run.ops.append(Op(inst.name, cycle, elapsed, error))

    _in_process(run, seconds, cycles, trace, do_cycle)
    run.latencies_ms = [op.seconds * 1e3 for op in run.ops]
    run.peak_rss_mb = _own_peak_rss_mb()
    return run


# -- service-mix ---------------------------------------------------------------------


def _server(root, work_dir, tag, spans_out="", cpu=None):
    cache = os.path.join(work_dir, f"cache-{tag}")
    return loadgen.Server(root, cache, os.path.join(work_dir, "server.log"), spans_out, cpu)


def _check_replies(run, stream, recorder):
    for rid, row in recorder.rows.items():
        inst = stream.formulas[row["j"]]
        reply = row["reply"]
        if reply is None:
            error = "no response"
        elif reply.get("code") != 200:
            error = f"code {reply.get('code')}: {reply.get('error', '')}"
        else:
            result = reply["result"]
            error = checks.check_verdict(
                result["status"], result.get("assignment"), inst.clauses, inst.expect
            )
        seconds = (row["done"] - row["sent"]) if row["done"] is not None else 0.0
        run.ops.append(Op(row["phase"], 0, seconds, error))


def run_service(root, seed, seconds, trace, work_dir, requests=None,
                setup_repeats=SETUP_REPEATS) -> Run:
    """Open loop for half the time, closed loop for the other half.

    ``requests`` replaces both phases by that many strictly sequential
    requests (window 1), which makes every count repeatable.
    """
    run = Run("service-mix")
    os.makedirs(work_dir, exist_ok=True)
    # The server and the load generator each get a CPU of their own.
    available = cpus()
    server_cpu = available[-1] if len(available) > 1 else None
    pin(0, available[0] if server_cpu is not None else None)

    def start(tag, spans_out=""):
        started = time.perf_counter()
        server = _server(root, work_dir, tag, spans_out, server_cpu)
        try:
            loadgen.ping(server.address)
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - started

    for k in range(setup_repeats - 1):
        server, setup = start(f"setup{k}")
        run.setup.append(setup)
        server.stop()

    spans_out = ""
    if trace:
        calib = loadgen.Stream(f"{seed}-calibration")
        server, _ = start("untraced")
        try:
            started = time.perf_counter()
            loadgen.closed_loop(server.address, calib, loadgen.Recorder(), CLOSED_WINDOW,
                                requests=CALIBRATION_REQUESTS, phase="calibration")
            untraced = time.perf_counter() - started
        finally:
            server.stop()
        spans_out = os.path.join(work_dir, "spans.json")

    server, setup = start("main", spans_out)
    run.setup.append(setup)
    try:
        recorder = loadgen.Recorder()
        if trace:
            calib = loadgen.Stream(f"{seed}-calibration")
            started = time.perf_counter()
            loadgen.closed_loop(server.address, calib, recorder, CLOSED_WINDOW,
                                requests=CALIBRATION_REQUESTS, phase="calibration")
            run.extra["trace_overhead_share"] = (time.perf_counter() - started) / untraced - 1.0
        stream = loadgen.Stream(seed)
        run.extra["oversize"] = loadgen.oversize(server.address, stream.oversize_line())
        loadgen.ping(server.address)
        if requests is not None:
            loadgen.closed_loop(server.address, stream, recorder, 1, requests=requests)
        else:
            loadgen.open_loop(server.address, stream, recorder, OPEN_LOOP_RPS, seconds / 2)
            loadgen.closed_loop(server.address, stream, recorder, CLOSED_WINDOW, seconds / 2)
        run.extra["server_stats"] = loadgen.stats(server.address)
        run.peak_rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with code {code}")

    rows = [r for r in recorder.rows.values() if r["phase"] != "calibration"]
    run.extra["cold_share"] = sum(r["cold"] for r in rows) / len(rows)
    run.extra["cache_hits"] = sum(
        1 for r in rows if r["reply"] is not None and r["reply"].get("from_cache")
    )
    if trace:
        calib_rows = [r for r in recorder.rows.values() if r["phase"] == "calibration"]
        recorder.rows = {k: r for k, r in recorder.rows.items() if r["phase"] != "calibration"}
        with open(spans_out, encoding="utf-8") as handle:
            run.trace = json.load(handle)
        run.extra["client_seconds"] = sum(r["done"] - r["sent"] for r in rows + calib_rows)
        run.extra["traced_requests"] = len(rows) + len(calib_rows)
    _check_replies(run, stream, recorder)

    opened = [r for r in rows if r["phase"] == "open"]
    run.latencies_ms = [(r["done"] - r["due"]) * 1e3 for r in opened if r["done"] is not None]
    run.extra["lateness_ms"] = [(r["sent"] - r["due"]) * 1e3 for r in opened]
    closed = [r for r in rows if r["phase"] == "closed"]
    run.extra["closed_rates"] = _block_rates(closed)
    run.extra["closed_latencies_ms"] = [
        (r["done"] - r["sent"]) * 1e3 for r in closed if r["done"] is not None
    ]
    return run


def _block_rates(rows, block=50) -> list:
    """Completion rate of each run of ``block`` consecutive verified completions."""
    done = sorted(
        r["done"] for r in rows
        if r["reply"] is not None and r["reply"].get("code") == 200
    )
    block = min(block, len(done) - 1)  # fixed-count runs may be short
    if block < 1:
        return []
    return [block / (done[k + block] - done[k]) for k in range(0, len(done) - block, block)]


# -- metrics ------------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it: (value, pct, n)."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def slot_p50_ms(ops) -> float:
    """Median over corpus slots of each slot's median latency (per check for NBL).

    Every slot counts once, so the p50 does not jump between two groups of
    files with very different costs when their counts shift by one.
    """
    by_slot = defaultdict(list)
    for op in ops:
        by_slot[op.slot].append(op.seconds / (op.checks or 1))
    return statistics.median(statistics.median(v) for v in by_slot.values()) * 1e3


def slot_rate(ops, per_op=lambda op: 1):
    """Work per second from the median program time of each corpus slot."""
    by_slot = defaultdict(list)
    work = defaultdict(list)
    for op in ops:
        by_slot[op.slot].append(op.seconds)
        work[op.slot].append(per_op(op))
    seconds = sum(statistics.median(v) for v in by_slot.values())
    return sum(statistics.median(v) for v in work.values()) / seconds


def end_to_end(run: Run) -> dict:
    """Every end-to-end metric that applies to the workload (name -> (value, unit))."""
    attempted = len(run.ops)
    ok_share = 1.0 - run.failed / attempted
    if run.workload == "service-mix":
        # The open loop's p50 from due time moved by 2x between runs on the
        # shared VM (3.4-6.5 ms), so the gated p50 is the closed loop's.
        rate = statistics.median(run.extra["closed_rates"])
        p50 = statistics.median(run.extra["closed_latencies_ms"])
    else:
        rate = ok_share * slot_rate(run.ops)
        p50 = slot_p50_ms(run.ops)
    out = {
        "setup_s": (statistics.median(run.setup), "s"),
        "verdicts_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
    }
    if run.workload == "service-mix":
        out["saturated_rps"] = out["verdicts_per_s"]
        if run.latencies_ms:  # empty in a fixed-count (closed-loop only) run
            out["open_latency_p50_ms"] = (statistics.median(run.latencies_ms), "ms")
    if run.workload == "nbl-paper":
        out["samples_per_s"] = (slot_rate(run.ops, lambda op: op.samples), "1/s")
    t = tail(run.latencies_ms)
    if t is not None:
        out["latency_tail_ms"] = (t[0], "ms")
        out["latency_tail_pct"] = (t[1], "%")
        out["latency_tail_n"] = (t[2], "count")
    out["fail_share"] = (run.failed / attempted, "ratio")
    return out


#: Per-layer self-time metrics (seconds per operation): metric -> span name.
PER_OP_SELF = {
    "cnf.parse_s": "cnf.parse",
    "cnf.build_s": "cnf.build",
    "cnf.fingerprint_s": "cnf.fingerprint",
    "preprocess.run_s": "preprocess.run",
    "preprocess.reconstruct_s": "preprocess.reconstruct",
    "cdcl.load_s": "cdcl.load",
    "cdcl.search_s": "cdcl.search",
    "service.parse_request_s": "service.parse_request",
    "service.build_job_s": "service.build_job",
    "service.encode_s": "service.encode",
    "service.handle_s": "service.handle",
    "runtime.cache_get_s": "runtime.cache_get",
    "runtime.cache_put_s": "runtime.cache_put",
    "runtime.execute_s": "runtime.execute",
    "core.symbolic_s": "core.symbolic",
    "noise.sample_s": "noise.sample",
    "hyperspace.tau_s": "hyperspace.tau",
    "core.sigma_s": "core.sigma",
    "core.check_s": "core.check",
}
#: Per-layer work counts (per operation): metric -> counter name.
PER_OP_COUNT = {
    "cdcl.propagations": "cdcl.propagations",
    "cdcl.conflicts": "cdcl.conflicts",
    "cdcl.decisions": "cdcl.decisions",
    "noise.values": "noise.values",
}


def per_layer(run: Run) -> dict:
    s = run.trace
    self_t, total, calls, counters = s["self"], s["total"], s["calls"], s["counters"]
    if run.workload == "service-mix":
        ops = run.extra["traced_requests"]
    else:
        ops = len(run.ops)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, span in PER_OP_SELF.items():
        out[name] = (self_t.get(span, 0.0) / ops, "s/op")
    for name, counter in PER_OP_COUNT.items():
        out[name] = (counters.get(counter, 0.0) / ops, "count/op")
    out["cnf.fingerprint_calls_per_op"] = (calls.get("cnf.fingerprint", 0) / ops, "count/op")
    out["cdcl.props_per_s"] = (
        ratio(counters.get("cdcl.propagations", 0.0), total.get("cdcl.search", 0.0)), "1/s")
    out["preprocess.clause_reduction"] = (
        1.0 - ratio(counters.get("preprocess.clauses_out", 0.0),
                    counters.get("preprocess.clauses_in", 0.0))
        if counters.get("preprocess.clauses_in") else 0.0, "ratio")
    out["preprocess.decided_share"] = (
        ratio(counters.get("preprocess.decided", 0.0), counters.get("preprocess.runs", 0.0)),
        "ratio")
    out["runtime.cache_hit_ratio"] = (
        ratio(counters.get("runtime.cache_hits", 0.0), counters.get("runtime.cache_gets", 0.0)),
        "ratio")
    dispatch = total.get("runtime.dispatch", 0.0)
    out["runtime.dispatch_wait_s"] = (
        max(0.0, dispatch - total.get("runtime.execute", 0.0)) / ops if dispatch else 0.0,
        "s/op")
    out["core.checks_per_verdict"] = (counters.get("core.checks", 0.0) / ops, "count/op")
    service = run.extra.get("server_stats", {}).get("service", {})
    out["service.rejected"] = (service.get("rejected", 0), "count")
    out["service.dedup_hits"] = (service.get("dedup_hits", 0), "count")
    out["service.transport_s"] = (
        (run.extra["client_seconds"] - total.get("service.handle", 0.0)) / ops
        if run.workload == "service-mix" else 0.0, "s/op")
    out["service.oversize_resets"] = (
        1 if run.extra.get("oversize") == "reset" else 0, "count")
    out["trace.overhead_share"] = (run.extra["trace_overhead_share"], "ratio")
    return out


def layer_shares(run: Run) -> dict:
    """Share of the traced program time spent (self time) in each layer."""
    self_t = {k: v for k, v in run.trace["self"].items() if k != "runtime.dispatch"}
    if run.workload == "service-mix":
        # The server's busy time: requests on the event loop plus worker
        # solves (waiting for the executor is reported as dispatch wait).
        wall = sum(self_t.values())
    else:
        wall = sum(op.seconds for op in run.ops)
    shares = defaultdict(float)
    for name, seconds in self_t.items():
        shares[spans.layer_of(name)] += seconds / wall
    shares["(outside traced calls)"] = max(0.0, 1.0 - sum(shares.values()))
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def cleanup(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))  # only succeeds once no run uses it
    except OSError:
        pass
