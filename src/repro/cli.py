"""Command-line interface: check or solve DIMACS CNF files with NBL-SAT.

Usage (after installation)::

    python -m repro.cli check  instance.cnf --engine symbolic
    python -m repro.cli solve  instance.cnf --engine sampled --carrier bipolar
    python -m repro.cli preprocess instance.cnf -o reduced.cnf
    python -m repro.cli batch  instances/ --workers 4
    python -m repro.cli incremental queries.txt --solver cdcl
    python -m repro.cli figure1 --samples 500000
    python -m repro.cli solve instance.cnf --proof proof.drat
    python -m repro.cli check-proof instance.cnf proof.drat
    python -m repro.cli serve --port 9090 --workers 4 --cache-dir cache/
    python -m repro.cli client instance.cnf --port 9090

``check`` and ``solve`` exit with the SAT-competition codes — 10 for SAT,
20 for UNSAT — and 1 for UNKNOWN, an error or bad input. ``check`` is
Algorithm 1 on the formula as given; ``solve`` runs one
:class:`~repro.runtime.SolveJob`, preprocessing first unless
``--no-preprocess`` is given (so does ``batch``; a ``cdcl`` job searches
the formula as given either way), and ``solve --proof`` routes that job
to the proof-capable CDCL solver to record a DRAT proof.
``preprocess`` writes the reduced DIMACS and exits 0, or 10/20 when the
pipeline alone decides the instance. ``figure1``, ``batch`` and
``incremental`` exit 0 on success. ``check-proof`` verifies a DRAT proof
— exit 0 verified, 1 rejected, 2 malformed proof or unreadable input.
``serve`` runs the always-on solve server of :mod:`repro.service` (exit
0 on clean shutdown) and ``client`` sends it DIMACS files (or a
ping/stats/shutdown request) over TCP.

The CLI is a thin wrapper over the :mod:`repro.runtime` job path and
batch subsystem, the registry NBL engines, the :mod:`repro.preprocess`
pipeline, the :mod:`repro.incremental` session layer and the Figure 1
experiment driver; it exists so the library can be exercised without
writing Python.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.cnf.dimacs import parse_dimacs_file
from repro.cnf.formula import CNFFormula

#: ``repro.noise.base.available_carriers()``, written out so that building
#: the parser does not import NumPy (a test keeps the two equal).
CARRIERS = ("bipolar", "gaussian", "telegraph", "uniform")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NBL-SAT reproduction command-line interface",
        epilog=(
            "exit codes: check/solve follow the SAT-competition convention "
            "(10 SAT, 20 UNSAT) and exit 1 for UNKNOWN, an error or bad "
            "input; preprocess exits 0 after reducing, or "
            "10/20 when simplification alone decides the instance; "
            "figure1, batch and incremental exit 0 on success; "
            "check-proof exits 0 when the proof is verified, 1 when it is "
            "rejected, 2 for a malformed proof or unreadable input; "
            "serve exits 0 on clean shutdown; client exits 0 when every "
            "request succeeds"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_telemetry(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="record a JSONL span trace of the run to FILE "
            "(read it back with 'repro stats --trace FILE')",
        )
        sub.add_argument(
            "--metrics",
            default=None,
            metavar="FILE",
            help="write end-of-run metrics to FILE (Prometheus text format, "
            "or a JSON snapshot when FILE ends in .json)",
        )

    def add_no_preprocess(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--no-preprocess",
            action="store_true",
            help="skip the preprocessing pipeline (unit propagation, pure "
            "literals, subsumption, blocked clauses, variable elimination) "
            "that otherwise shrinks the instance before solving (a cdcl "
            "job searches the formula as given either way)",
        )

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("cnf", help="path to a DIMACS CNF file")
        sub.add_argument(
            "--engine",
            choices=("symbolic", "sampled"),
            default="symbolic",
            help="NBL engine to use (default: symbolic, the exact correlator)",
        )
        sub.add_argument(
            "--carrier",
            choices=CARRIERS,
            default="uniform",
            help="carrier family for the sampled engine",
        )
        sub.add_argument(
            "--samples",
            type=int,
            default=200_000,
            help="sample budget per check for the sampled engine",
        )
        sub.add_argument("--seed", type=int, default=0, help="noise seed")
        add_telemetry(sub)

    check = subparsers.add_parser("check", help="Algorithm 1 on the formula as given")
    add_common(check)

    solve = subparsers.add_parser(
        "solve", help="Algorithms 1+2: decision plus verified satisfying assignment"
    )
    add_common(solve)
    add_no_preprocess(solve)
    solve.add_argument(
        "--proof",
        default=None,
        metavar="FILE",
        help="record a DRAT proof of the run to FILE; routes the search "
        "through the proof-capable CDCL solver (--engine/--carrier/"
        "--samples do not apply), verify with 'repro check-proof'",
    )

    figure1 = subparsers.add_parser(
        "figure1", help="regenerate the paper's Figure 1 as an ASCII plot"
    )
    figure1.add_argument("--samples", type=int, default=400_000)
    figure1.add_argument("--seed", type=int, default=0)

    preprocess = subparsers.add_parser(
        "preprocess",
        help="simplify a DIMACS file with the preprocessing pipeline "
        "(exit 0 reduced, 10/20 when decided)",
        description=(
            "Run unit propagation, pure-literal elimination, subsumption + "
            "self-subsuming resolution, blocked clause elimination and "
            "bounded variable elimination to a fixpoint, then write the "
            "reduced formula (compactly renumbered) as DIMACS with the "
            "reduction statistics as leading comments. Exits 0 when a "
            "residual formula remains, 10/20 when preprocessing alone "
            "proves the instance SAT/UNSAT (the written DIMACS is then the "
            "trivial/contradictory formula)."
        ),
    )
    preprocess.add_argument("cnf", help="path to a DIMACS CNF file")
    preprocess.add_argument(
        "--output",
        "-o",
        default="-",
        help="where to write the reduced DIMACS ('-' = stdout, the default)",
    )
    preprocess.add_argument(
        "--freeze",
        type=int,
        nargs="*",
        default=(),
        metavar="VAR",
        help="variables that must survive untouched (e.g. future assumption "
        "variables)",
    )
    preprocess.add_argument(
        "--techniques",
        default=None,
        help="comma-separated subset of: units,pure,subsumption,bce,bve "
        "(default: all)",
    )
    preprocess.add_argument(
        "--max-rounds",
        type=int,
        default=20,
        help="upper bound on full pipeline rounds (default: 20)",
    )
    preprocess.add_argument(
        "--bve-growth",
        type=int,
        default=0,
        help="clauses a variable elimination may add beyond the removed "
        "count (default: 0, never grow)",
    )
    preprocess.add_argument(
        "--bve-occurrence-limit",
        type=int,
        default=16,
        help="skip variable elimination beyond this many occurrences per "
        "polarity (default: 16)",
    )

    batch = subparsers.add_parser(
        "batch",
        help="solve a directory/glob of DIMACS files through the runtime "
        "subsystem (exit 0 on success)",
    )
    batch.add_argument(
        "paths",
        nargs="+",
        help="DIMACS files, directories (scanned recursively) or glob patterns",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (default: 1, in-process)",
    )
    batch.add_argument(
        "--solver",
        default="portfolio",
        help="solver spec for every instance: portfolio, nbl-symbolic, "
        "nbl-sampled, or a registry solver name (default: portfolio, "
        "which runs nbl-symbolic up to 20 variables and cdcl above)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the sharded persistent result cache, shared "
        "with other batches and with serve --cache-dir (created if "
        "missing, recovered if present; each verdict is stored as it "
        "arrives); omit to cache in memory for this run only",
    )
    batch.add_argument(
        "--pattern",
        default="*.cnf",
        help="filename pattern used when scanning directories (default: *.cnf)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-instance wall-clock budget in seconds (enforced by the "
        "classical solvers; the sampled NBL engine is bounded by --samples "
        "and the symbolic engine by its 20-variable limit instead)",
    )
    batch.add_argument(
        "--carrier",
        choices=CARRIERS,
        default="uniform",
        help="carrier family for the sampled NBL engine",
    )
    batch.add_argument(
        "--samples",
        type=int,
        default=200_000,
        help="sample budget per check for the sampled NBL engine",
    )
    batch.add_argument("--seed", type=int, default=0, help="master seed")
    batch.add_argument(
        "--proof-dir",
        default=None,
        metavar="DIR",
        help="write one DRAT proof per executed job into DIR (classical "
        "--solver specs only; created if missing)",
    )
    add_no_preprocess(batch)
    add_telemetry(batch)

    incremental = subparsers.add_parser(
        "incremental",
        help="run a query script against one incremental solving session "
        "(exit 0 on success)",
        description=(
            "Execute a line-based query script against a single "
            "IncrementalSession, so sequences of related queries (k-sweeps, "
            "equivalence checks) share learned clauses and heuristic state. "
            "Script commands: 'var N' (grow the variable universe), "
            "'load FILE' (add a DIMACS file's clauses), 'add L1 L2 ... [0]' "
            "(add a clause), 'push' / 'pop' (open/close a retraction scope), "
            "'solve [L1 L2 ... [0]]' (solve under optional assumption "
            "literals). '#' starts a comment; blank lines are ignored."
        ),
    )
    incremental.add_argument(
        "script",
        help="path to the query script ('-' reads from stdin)",
    )
    incremental.add_argument(
        "--solver",
        default="cdcl",
        help="session solver spec: cdcl (native incremental), any registry "
        "solver name, nbl-symbolic, nbl-sampled or portfolio "
        "(default: cdcl)",
    )
    incremental.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-query wall-clock budget in seconds (cooperative; the NBL "
        "engines check it only before they start)",
    )
    incremental.add_argument(
        "--models",
        action="store_true",
        help="print a 'v' model line for every SAT answer",
    )
    incremental.add_argument(
        "--preprocess",
        action="store_true",
        help="run each query as a preprocessing job: the preprocessing "
        "pipeline runs with the query's assumption variables frozen (any "
        "solver spec; no --proof)",
    )
    incremental.add_argument(
        "--proof",
        default=None,
        metavar="FILE",
        help="record the session's DRAT derivations to FILE (not for "
        "portfolio or --preprocess sessions; solvers that emit no "
        "derivations, such as the NBL engines, mark the file "
        "'c incomplete' on UNSAT; "
        "UNSAT-under-assumption queries record a partial derivation, see "
        "docs/proofs.md)",
    )
    incremental.add_argument("--seed", type=int, default=0, help="solver seed")
    add_telemetry(incremental)

    check_proof = subparsers.add_parser(
        "check-proof",
        help="verify a DRAT proof against a DIMACS file "
        "(exit 0 verified, 1 rejected, 2 malformed)",
        description=(
            "Replay a DRAT proof — as written by 'solve --proof', "
            "'incremental --proof', 'batch --proof-dir' or the library's "
            "ProofLog — against the original formula, checking every "
            "addition is RUP or RAT and that the empty clause is derived. "
            "Exit codes: 0 when the proof is verified, 1 when it is "
            "rejected (a step fails or no refutation is reached), 2 when "
            "the proof file is malformed or an input is unreadable."
        ),
    )
    check_proof.add_argument("cnf", help="path to the original DIMACS CNF file")
    check_proof.add_argument("proof", help="path to the DRAT proof file")
    add_telemetry(check_proof)

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on solve server (exit 0 on clean shutdown)",
        description=(
            "Start the repro.service solve server: a stream of newline-"
            "delimited JSON solve jobs over TCP (or stdin/stdout with "
            "--stdio), with in-flight deduplication of identical formulas, "
            "bounded-queue admission control (429 rejections) and a "
            "sharded, write-ahead result cache so acknowledged verdicts "
            "survive a crash. Stop it with 'repro client --shutdown' (or "
            "EOF in --stdio mode). The wire protocol is documented in "
            "docs/service.md."
        ),
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=9090,
        help="TCP port to listen on; 0 picks an ephemeral port, announced "
        "on stdout (default: 9090)",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve stdin/stdout instead of a TCP socket (for supervision "
        "by a parent process; exits on EOF)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="solve executor workers: 1 = a worker thread, more = a "
        "process pool (default: 1)",
    )
    serve.add_argument(
        "--solver",
        default="portfolio",
        help="default solver spec for jobs that do not name one "
        "(default: portfolio, which runs nbl-symbolic up to 20 variables "
        "and cdcl above)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="directory for the sharded persistent result cache (created "
        "if missing, recovered if present); omit to serve from memory",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="cache shard count; pinned per directory (default: the "
        "directory's own count, 8 for a new one)",
    )
    serve.add_argument(
        "--shard-size",
        type=int,
        default=4096,
        help="LRU capacity per shard (default: 4096 entries)",
    )
    serve.add_argument(
        "--compact-threshold",
        type=int,
        default=1024,
        help="write-ahead-log records per shard before an automatic "
        "compaction; 0 compacts only at shutdown (default: 1024)",
    )
    serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every write-ahead append (survives power loss, slower; "
        "the default flush survives process death)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="most solves running in the executor at once (default: 8)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="most requests waiting for an executor slot before new work "
        "is rejected with a 429 response (default: 64)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-job wall-clock budget in seconds",
    )
    serve.add_argument(
        "--carrier",
        choices=CARRIERS,
        default="uniform",
        help="default carrier family for the sampled NBL engine",
    )
    serve.add_argument(
        "--samples",
        type=int,
        default=200_000,
        help="default sample budget for the sampled NBL engine",
    )
    serve.add_argument("--seed", type=int, default=0, help="master seed")
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound on graceful shutdown: in-flight requests still "
        "running past this budget are answered with a clean 503 "
        "(default: wait for them indefinitely)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="staleness threshold for the per-shard cross-process lock "
        "leases when several servers share --cache-dir (default: 10)",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="inject deterministic faults from this JSON plan (see "
        "docs/faults.md); testing only — also exported to worker "
        "processes via REPRO_FAULT_PLAN",
    )
    serve.add_argument(
        "--proof-dir",
        default=None,
        metavar="DIR",
        help="write one DRAT proof per executed classical-solver job into "
        "DIR (created if missing)",
    )
    serve.add_argument(
        "--preprocess",
        action="store_true",
        help="run the preprocessing pipeline by default for jobs that do "
        "not set 'preprocess' themselves (off by default: a server solves "
        "exactly what it is sent)",
    )
    add_telemetry(serve)

    client = subparsers.add_parser(
        "client",
        help="send DIMACS files (or ping/stats/shutdown) to a running "
        "solve server (exit 0 on success)",
        description=(
            "Connect to a 'repro serve' server and either solve the given "
            "DIMACS files (pipelined over one connection, so the server "
            "can dedup and parallelise) or perform one control operation. "
            "Solve verdicts print one line per file; --stats prints the "
            "server's JSON counters. Exits 0 on success, 1 when any "
            "request fails or any job errors, 2 for usage errors."
        ),
    )
    client.add_argument(
        "files",
        nargs="*",
        help="DIMACS CNF files to solve (omit when using a control flag)",
    )
    client.add_argument(
        "--host",
        default="127.0.0.1",
        help="server host (default: 127.0.0.1)",
    )
    client.add_argument(
        "--port",
        type=int,
        default=9090,
        help="server port (default: 9090)",
    )
    client.add_argument(
        "--solver",
        default=None,
        help="solver spec to request (default: the server's default)",
    )
    client.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget to request, in seconds",
    )
    client.add_argument(
        "--preprocess",
        action="store_true",
        help="ask the server to run the preprocessing pipeline on each job",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry transient failures (connection loss, 429 queue-full, "
        "503 draining) up to N times with jittered exponential backoff, "
        "reconnecting and resubmitting outstanding requests (default: 0, "
        "fail fast)",
    )
    client.add_argument(
        "--ping",
        action="store_true",
        help="liveness probe: exit 0 when the server answers",
    )
    client.add_argument(
        "--stats",
        action="store_true",
        help="print the server's counters / queue depths / cache state",
    )
    client.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to drain, compact its cache and exit",
    )

    stats = subparsers.add_parser(
        "stats",
        help="summarise telemetry artifacts: JSONL traces, metrics files, "
        "BENCH_*.json trajectories (exit 0 ok, 1 bad file, 2 no input)",
        description=(
            "Read back what the --trace/--metrics flags and the trajectory "
            "recorder wrote. At least one input flag is required; each "
            "given artifact is validated and summarised. Exit codes: 0 on "
            "success, 1 for an unreadable/invalid file, 2 when no input "
            "flag was given."
        ),
    )
    stats.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="a JSONL span trace written by --trace",
    )
    stats.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="a metrics file written by --metrics (Prometheus text or .json)",
    )
    stats.add_argument(
        "--bench",
        default=None,
        metavar="FILE",
        help="a BENCH_*.json perf-trajectory file",
    )
    return parser


def _run_preprocess(args: argparse.Namespace) -> int:
    from repro.cnf.dimacs import to_dimacs
    from repro.exceptions import ReproError
    from repro.preprocess import Preprocessor

    techniques = (
        [name.strip() for name in args.techniques.split(",") if name.strip()]
        if args.techniques is not None
        else None
    )
    try:
        pipeline = Preprocessor(
            techniques=techniques,
            max_rounds=args.max_rounds,
            bve_growth=args.bve_growth,
            bve_occurrence_limit=args.bve_occurrence_limit,
        )
        formula = parse_dimacs_file(args.cnf)
        result = pipeline.preprocess(formula, frozen=args.freeze)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    comments = [f"reduced by repro preprocess from {args.cnf}"]
    comments += [f"status {result.status}"]
    comments += result.stats.to_text().splitlines()
    if result.variable_map:
        renumbering = " ".join(
            f"{old}->{new}" for old, new in sorted(result.variable_map.items())
        )
        comments.append(f"variable map (original->reduced): {renumbering}")
    text = to_dimacs(result.formula, comments=comments)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}", file=sys.stderr)
            return 1
    print(result.stats.to_text(), file=sys.stderr)
    if result.status == "SAT":
        return 10
    if result.status == "UNSAT":
        return 20
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    from repro.exceptions import RuntimeSubsystemError
    from repro.runtime import BatchRunner, ShardedResultCache

    cache = None
    if args.cache_dir:
        # The cache is an optimization: an unreadable directory must not
        # block the batch, just run it cold from memory.
        try:
            cache = ShardedResultCache(args.cache_dir)
        except (RuntimeSubsystemError, OSError) as exc:
            print(f"warning: ignoring cache directory: {exc}", file=sys.stderr)
        else:
            print(f"c loaded {len(cache)} cached results from {args.cache_dir}")
    try:
        runner = BatchRunner(
            solver=args.solver,
            workers=args.workers,
            master_seed=args.seed,
            cache=cache,
            samples=args.samples,
            carrier=args.carrier,
            timeout=args.timeout,
            preprocess=not args.no_preprocess,
            proof_dir=args.proof_dir,
        )
        report = runner.run(args.paths, pattern=args.pattern)
    except RuntimeSubsystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if cache is not None:
            cache.close()
    print(report.to_text())
    if report.persist_failures:
        print(
            f"warning: {report.persist_failures} verdicts could not be "
            f"persisted to {args.cache_dir}",
            file=sys.stderr,
        )
    return 1 if report.status_counts.get("ERROR") else 0


def _parse_literals(tokens: Sequence[str], line_number: int) -> list[int]:
    """Parse DIMACS-signed literal tokens (an optional trailing 0 is dropped)."""
    literals: list[int] = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            raise ValueError(
                f"line {line_number}: {token!r} is not a literal"
            ) from None
        literals.append(value)
    if literals and literals[-1] == 0:
        literals.pop()
    if any(lit == 0 for lit in literals):
        raise ValueError(f"line {line_number}: '0' only terminates a clause")
    return literals


def _run_incremental(args: argparse.Namespace) -> int:
    from repro.exceptions import ReproError
    from repro.incremental import make_session

    try:
        if args.script == "-":
            script = sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as handle:
                script = handle.read()
    except OSError as exc:
        print(f"error: cannot read script: {exc}", file=sys.stderr)
        return 1

    try:
        session = make_session(
            args.solver, seed=args.seed, preprocess=args.preprocess
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    proof_log = None
    if args.proof is not None:
        from repro.proofs import ProofLog

        try:
            proof_log = ProofLog(args.proof)
            session.set_proof_log(proof_log)
        except (ReproError, OSError) as exc:
            if proof_log is not None:
                proof_log.close()
            print(f"error: {exc}", file=sys.stderr)
            return 1

    status_counts: dict[str, int] = {}
    queries = 0
    try:
        for line_number, raw in enumerate(script.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            command, *rest = line.split()
            if command == "var":
                if len(rest) != 1 or not rest[0].isdigit():
                    raise ValueError(
                        f"line {line_number}: 'var' expects one count"
                    )
                target = int(rest[0])
                if target > session.num_variables:
                    session.add_formula(
                        CNFFormula([], num_variables=target)
                    )
            elif command == "load":
                if len(rest) != 1:
                    raise ValueError(
                        f"line {line_number}: 'load' expects one file path"
                    )
                session.add_formula(parse_dimacs_file(rest[0]))
            elif command == "add":
                session.add_clause(_parse_literals(rest, line_number))
            elif command == "push":
                session.push()
            elif command == "pop":
                session.pop()
            elif command == "solve":
                assumptions = _parse_literals(rest, line_number)
                result = session.solve(assumptions, timeout=args.timeout)
                queries += 1
                status_counts[result.status] = (
                    status_counts.get(result.status, 0) + 1
                )
                suffix = (
                    " assuming " + " ".join(str(a) for a in assumptions)
                    if assumptions
                    else ""
                )
                print(f"c query {queries}: {result.solver_name}{suffix}")
                verdict = {
                    "SAT": "SATISFIABLE",
                    "UNSAT": "UNSATISFIABLE",
                }.get(result.status, result.status)
                print(f"s {verdict}")
                if args.models and result.is_sat:
                    lits = map(str, result.assignment.to_literals())
                    print(" ".join(["v", *lits, "0"]))
            else:
                raise ValueError(
                    f"line {line_number}: unknown command {command!r}"
                )
    except (ValueError, OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if proof_log is not None:
            proof_log.close()
        return 1
    if proof_log is not None:
        proof_log.close()
        print(f"c proof written to {args.proof}")
    stats = session.total_stats
    summary = ", ".join(
        f"{count} {status}" for status, count in sorted(status_counts.items())
    )
    print(
        f"c session: {queries} queries ({summary or 'none'}), "
        f"{session.num_clauses} clauses, {session.num_variables} variables, "
        f"{stats.decisions} decisions, {stats.conflicts} conflicts, "
        f"{stats.elapsed_seconds:.3f}s solving"
    )
    return 0


def _run_check(args: argparse.Namespace) -> int:
    """``check``: Algorithm 1 on the formula as given, by the registry engine."""
    from repro.exceptions import ReproError
    from repro.runtime.jobs import make_spec_solver, refusal_reason

    spec = f"nbl-{args.engine}"
    try:
        formula = parse_dimacs_file(args.cnf)
        refusal = refusal_reason(spec, formula)
        if refusal is not None:
            raise ReproError(f"{spec} refused: {refusal}")
        solver = make_spec_solver(
            spec, seed=args.seed, samples=args.samples, carrier=args.carrier
        )
        result = solver.check(formula)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.satisfiable:
        verdict, code = "SATISFIABLE", 10
    elif solver.complete:
        verdict, code = "UNSATISFIABLE", 20
    else:
        # A sampled mean judged zero is statistical evidence, not a proof.
        verdict, code = "UNKNOWN", 1
    print(verdict)
    print(
        f"c mean={result.mean:.4g} threshold={result.threshold:.4g} "
        f"samples={result.samples_used} engine={result.engine}"
    )
    return code


def _run_solve(args: argparse.Namespace) -> int:
    """``solve``: one :class:`~repro.runtime.SolveJob`, printed from its outcome."""
    from repro.exceptions import ReproError
    from repro.runtime import SolveJob, execute_job

    try:
        formula = parse_dimacs_file(args.cnf)
        # The NBL engines refuse a formula without variables; CDCL decides it.
        use_cdcl = args.proof is not None or formula.num_variables == 0
        job = SolveJob(
            formula,
            label=args.cnf,
            solver="cdcl" if use_cdcl else f"nbl-{args.engine}",
            samples=args.samples,
            carrier=args.carrier,
            seed=args.seed,
            preprocess=not args.no_preprocess,
            proof=args.proof,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outcome = execute_job(job)
    if outcome.status == "SAT":
        print("SATISFIABLE")
        model = sorted(outcome.assignment, key=abs)
        print(" ".join(["v", *map(str, model), "0"]))
        code = 10
    elif outcome.status == "UNSAT":
        print("UNSATISFIABLE")
        code = 20
    else:
        if outcome.error:
            print(f"error: {outcome.error}", file=sys.stderr)
        print("s UNKNOWN")
        code = 1
    print(f"c winner={outcome.winner} samples={outcome.samples_used}")
    if outcome.proof:
        print(f"c proof written to {outcome.proof}")
    return code


def _run_check_proof(args: argparse.Namespace) -> int:
    """``check-proof``: exit 0 verified, 1 rejected, 2 malformed/unreadable."""
    from repro.exceptions import ProofError, ReproError
    from repro.proofs import check_proof_file

    try:
        formula = parse_dimacs_file(args.cnf)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = check_proof_file(formula, args.proof)
    except (ProofError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result:
        print(
            f"s VERIFIED ({result.steps_checked} steps, "
            f"{result.elapsed_seconds:.3f}s)"
        )
        return 0
    print(f"s REJECTED ({result.reason})")
    return 1


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: run the always-on solve server until shutdown/EOF."""
    from repro.exceptions import ReproError
    from repro.runtime.locks import DEFAULT_LEASE_TIMEOUT
    from repro.service import ServiceConfig, SolveService

    try:
        if args.fault_plan is not None:
            from repro.faults import FAULT_PLAN_ENV, FaultPlan, install_plan

            install_plan(FaultPlan.load(args.fault_plan))
            # Exported so executor worker *processes* (workers > 1) load
            # the same plan and fire their own pool.execute faults.
            os.environ[FAULT_PLAN_ENV] = os.path.abspath(args.fault_plan)
        config = ServiceConfig(
            solver=args.solver,
            workers=args.workers,
            master_seed=args.seed,
            samples=args.samples,
            carrier=args.carrier,
            timeout=args.timeout,
            preprocess=args.preprocess,
            cache_dir=args.cache_dir,
            shards=args.shards,
            shard_size=args.shard_size,
            compact_threshold=args.compact_threshold,
            fsync=args.fsync,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            drain_timeout=args.drain_timeout,
            lease_timeout=(
                args.lease_timeout
                if args.lease_timeout is not None
                else DEFAULT_LEASE_TIMEOUT
            ),
            proof_dir=args.proof_dir,
        )
        if config.proof_dir is not None:
            os.makedirs(config.proof_dir, exist_ok=True)
        service = SolveService(config)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.stdio:
        return service.run_stdio()

    def announce(host: str, port: int) -> None:
        # One parseable line so wrappers (tests, supervisors) can find an
        # ephemeral port; flushed because the server then blocks forever.
        print(f"c service listening on {host}:{port}", flush=True)

    try:
        return service.run_tcp(host=args.host, port=args.port, ready=announce)
    except KeyboardInterrupt:
        print("c interrupted", file=sys.stderr)
        return 130
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_client(args: argparse.Namespace) -> int:
    """``client``: solve files through (or control) a running server."""
    from repro.exceptions import ServiceError
    from repro.service import ProtocolError, RetryPolicy, ServiceClient

    control_flags = sum((args.ping, args.stats, args.shutdown))
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if control_flags > 1:
        print(
            "error: --ping, --stats and --shutdown are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if control_flags == 0 and not args.files:
        print(
            "error: nothing to do — give DIMACS files or one of "
            "--ping/--stats/--shutdown",
            file=sys.stderr,
        )
        return 2

    try:
        client = ServiceClient(
            host=args.host,
            port=args.port,
            retry=RetryPolicy(retries=args.retries),
        )
    except (ServiceError, OSError) as exc:
        print(
            f"error: cannot connect to {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1

    with client:
        try:
            if args.ping:
                print("c pong")
                return 0 if client.ping() else 1
            if args.stats:
                import json as _json

                print(_json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.shutdown:
                ok = client.shutdown()
                print("c server shutting down" if ok else "c shutdown refused")
                return 0 if ok else 1

            requests = []
            for path in args.files:
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        text = handle.read()
                except OSError as exc:
                    print(f"error: cannot read {path!r}: {exc}", file=sys.stderr)
                    return 1
                request = {"dimacs": text, "label": path}
                if args.solver is not None:
                    request["solver"] = args.solver
                if args.timeout is not None:
                    request["timeout"] = args.timeout
                if args.preprocess:
                    request["preprocess"] = True
                requests.append(request)
            failures = 0
            for path, response in zip(
                args.files, client.solve_many(requests)
            ):
                if response["code"] != 200:
                    failures += 1
                    print(f"{path}: error {response['code']}: {response.get('error')}")
                    continue
                result = response["result"]
                provenance = ""
                if response.get("from_cache"):
                    provenance = " [cache]"
                elif response.get("deduped"):
                    provenance = " [dedup]"
                winner = f" by {result['winner']}" if result.get("winner") else ""
                print(f"{path}: {result['status']}{winner}{provenance}")
                if result["status"] == "ERROR":
                    failures += 1
            return 1 if failures else 0
        except ServiceError as exc:
            pending = f" (pending: {', '.join(exc.pending)})" if exc.pending else ""
            print(f"error: {exc}{pending}", file=sys.stderr)
            return 1
        except (ProtocolError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _summarise_trace(path: str) -> None:
    from repro import telemetry

    roots = telemetry.load_trace(path)
    counts: dict[str, int] = {}
    totals: dict[str, float] = {}
    span_count = 0
    for root in roots:
        for span in root.walk():
            span_count += 1
            counts[span.name] = counts.get(span.name, 0) + 1
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.duration_seconds
            )
    print(f"trace {path}: {len(roots)} root spans, {span_count} spans total")
    for name in sorted(counts):
        print(f"  {name:16s} {counts[name]:8d}  {totals[name]:12.6f}s")


def _summarise_metrics(path: str) -> None:
    import json as _json

    from repro.exceptions import ReproError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read metrics file {path!r}: {exc}") from exc
    if path.endswith(".json"):
        try:
            payload = _json.loads(text)
            if not isinstance(payload, dict):
                raise TypeError("top level must be an object")
            rows = [
                (name, family["type"], len(family["samples"]))
                for name, family in sorted(payload.items())
            ]
        except (ValueError, TypeError, KeyError) as exc:
            raise ReproError(
                f"{path!r} is not a metrics JSON snapshot: {exc}"
            ) from exc
        print(f"metrics {path}: {len(rows)} families (JSON snapshot)")
        for name, kind, sample_count in rows:
            print(f"  {name:40s} {kind:10s} {sample_count:4d} samples")
        return
    families = 0
    samples = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            families += 1
        elif not line.startswith("#"):
            if " " not in line:
                raise ReproError(
                    f"{path!r} is not Prometheus text: bad sample {line!r}"
                )
            samples += 1
    if families == 0 and samples == 0:
        raise ReproError(f"{path!r} contains no metrics")
    print(f"metrics {path}: {families} families, {samples} samples")


def _run_stats(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.exceptions import ReproError

    if not (args.trace or args.metrics or args.bench):
        print(
            "error: stats needs at least one of --trace, --metrics, --bench",
            file=sys.stderr,
        )
        return 2
    try:
        if args.trace:
            _summarise_trace(args.trace)
        if args.metrics:
            _summarise_metrics(args.metrics)
        if args.bench:
            records = telemetry.load_bench_records(args.bench)
            print(f"bench {args.bench}: {len(records)} entries")
            for record in records:
                print(f"  {record.to_text()}")
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    ``check`` and ``solve`` follow the SAT-competition convention — 10 for
    SAT, 20 for UNSAT — so the CLI can slot into existing tooling, and 1
    for UNKNOWN, an error or bad input. ``preprocess`` exits 0 after
    reducing and 10/20 when simplification alone decides the instance.
    ``figure1``, ``batch`` and ``incremental`` return 0 on success (1 on
    errors). ``check-proof`` returns 0 when the proof is verified, 1 when
    it is rejected and 2 for a malformed proof or unreadable input.
    """
    args = _build_parser().parse_args(argv)

    # ``stats`` reads telemetry artifacts; its --trace/--metrics are inputs,
    # so it must not go through the output-telemetry setup below.
    if args.command == "stats":
        return _run_stats(args)

    trace_file = getattr(args, "trace", None)
    metrics_file = getattr(args, "metrics", None)
    if trace_file is None and metrics_file is None:
        return _dispatch(args)

    from repro import telemetry

    if trace_file is not None:
        telemetry.start_tracing(sink=trace_file)
    if metrics_file is not None:
        telemetry.enable_metrics()
    try:
        root_span = telemetry.span(f"cli.{args.command}")
        with root_span:
            if root_span.recording:
                root_span.set(command=args.command)
            code = _dispatch(args)
            if root_span.recording:
                root_span.set(exit_code=code)
        return code
    finally:
        if trace_file is not None:
            telemetry.stop_tracing()
        if metrics_file is not None:
            try:
                telemetry.write_metrics(metrics_file)
            except OSError as exc:
                print(
                    f"error: cannot write metrics file: {exc}", file=sys.stderr
                )
            telemetry.disable_metrics()


def _dispatch(args: argparse.Namespace) -> int:
    """Run one parsed subcommand (telemetry already set up by ``main``)."""
    if args.command == "figure1":
        from repro.experiments.figure1 import run_figure1

        result = run_figure1(max_samples=args.samples, seed=args.seed)
        print(result.record.to_text())
        print()
        print(result.ascii_plot())
        return 0

    if args.command == "preprocess":
        return _run_preprocess(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "incremental":
        return _run_incremental(args)

    if args.command == "check-proof":
        return _run_check_proof(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "client":
        return _run_client(args)

    if args.command == "check":
        return _run_check(args)

    return _run_solve(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
