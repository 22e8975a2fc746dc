"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.cnf.dimacs import write_dimacs_file
from repro.cnf.generators import random_ksat
from repro.cnf.paper_instances import (
    example5_instance,
    paper_instances,
    section4_sat_instance,
    section4_unsat_instance,
)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs_file(section4_sat_instance(), path)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    write_dimacs_file(section4_unsat_instance(), path)
    return str(path)


class TestCheckCommand:
    def test_sat_exit_code(self, sat_file, capsys):
        assert main(["check", sat_file]) == 10
        assert "SATISFIABLE" in capsys.readouterr().out

    def test_unsat_exit_code(self, unsat_file, capsys):
        assert main(["check", unsat_file]) == 20
        assert "UNSATISFIABLE" in capsys.readouterr().out

    def test_sampled_engine_with_carrier(self, sat_file):
        code = main(
            ["check", sat_file, "--engine", "sampled", "--carrier", "bipolar",
             "--samples", "60000", "--seed", "3"]
        )
        assert code == 10


class TestSolveCommand:
    def test_solve_prints_model(self, sat_file, capsys):
        assert main(["solve", sat_file]) == 10
        out = capsys.readouterr().out
        assert "SATISFIABLE" in out
        assert "v -1 2 0" in out

    def test_solve_unsat(self, unsat_file, capsys):
        assert main(["solve", unsat_file]) == 20
        assert "UNSATISFIABLE" in capsys.readouterr().out


def _write(tmp_path, name, formula):
    path = tmp_path / f"{name}.cnf"
    write_dimacs_file(formula, path)
    return str(path)


def _printed_model(out):
    """The one ``v`` line of ``out`` as a ``variable -> bool`` model."""
    (line,) = [row for row in out.splitlines() if row.startswith("v ")]
    literals = [int(token) for token in line.split()[1:]]
    assert literals[-1] == 0
    return {abs(lit): lit > 0 for lit in literals[:-1]}


SEEDS = range(5)


class TestVerdictIntegrity:
    """An exit code is a verdict the run can stand behind, whatever the seed."""

    @pytest.mark.parametrize("no_preprocess", [False, True])
    def test_solve_verdicts_stand(self, no_preprocess, tmp_path, capsys):
        """Exit 10 prints a model of the formula, and 20 from ``--engine
        sampled`` needs preprocessing (Example 5, SAT with one model, and
        the Section IV UNSAT instance are among the paper instances)."""
        runs = [["--engine", "symbolic"]] + [
            ["--engine", "sampled", "--seed", str(seed)] for seed in SEEDS
        ]
        flags = ["--no-preprocess"] if no_preprocess else []
        for name, formula in paper_instances().items():
            path = _write(tmp_path, name, formula)
            for run in runs:
                code = main(["solve", path, *run, *flags])
                out = capsys.readouterr().out
                assert code in (10, 20, 1), (name, run, out)
                if code == 10:
                    assert formula.evaluate(_printed_model(out)), (name, run, out)
                if code == 1:
                    assert out.splitlines()[0] == "s UNKNOWN", (name, run, out)
                if code == 20 and "sampled" in run:
                    # Only a complete step may refute: preprocessing can,
                    # the sampled engine cannot.
                    assert "c winner=preprocess " in out, (name, run, out)

    def test_sampled_check_of_unsat_is_unknown(self, unsat_file, capsys):
        for seed in SEEDS:
            code = main(
                ["check", unsat_file, "--engine", "sampled", "--seed", str(seed)]
            )
            out = capsys.readouterr().out
            assert code == 1, (seed, out)
            assert out.splitlines()[0] == "UNKNOWN", (seed, out)

    @pytest.mark.parametrize("engine", ["symbolic", "sampled"])
    @pytest.mark.parametrize("preprocess", [True, False])
    def test_solve_matches_a_direct_job(self, engine, preprocess, tmp_path, capsys):
        from repro.runtime import SolveJob, execute_job

        formula = example5_instance()
        path = _write(tmp_path, "example5", formula)
        argv = ["solve", path, "--engine", engine, "--seed", "4",
                "--samples", "60000", "--carrier", "bipolar"]
        code = main(argv + ([] if preprocess else ["--no-preprocess"]))
        out = capsys.readouterr().out
        outcome = execute_job(
            SolveJob(
                formula,
                solver=f"nbl-{engine}",
                seed=4,
                samples=60_000,
                carrier="bipolar",
                preprocess=preprocess,
            )
        )
        status = {10: "SAT", 20: "UNSAT"}.get(code, "UNKNOWN")
        assert status == (
            outcome.status if outcome.status != "ERROR" else "UNKNOWN"
        )
        if status == "SAT":
            expected = {abs(lit): lit > 0 for lit in outcome.assignment}
            assert _printed_model(out) == expected
        assert f"c winner={outcome.winner} samples={outcome.samples_used}" in out


class TestEngineLimit:
    """A formula over the symbolic engine's limit is refused, not a traceback;
    one without variables, which the engines refuse, is decided by CDCL."""

    @pytest.fixture
    def wide_file(self, tmp_path):
        return _write(tmp_path, "wide", random_ksat(30, 60, seed=1))

    @pytest.mark.parametrize(
        "argv", [["check"], ["solve", "--no-preprocess"]], ids=["check", "solve"]
    )
    def test_over_limit_is_one_error_line(self, wide_file, argv, capsys):
        assert main([argv[0], wide_file, *argv[1:]]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: ") and "refused: " in err[0]

    @pytest.mark.parametrize("flags", [[], ["--no-preprocess"]], ids=["pre", "raw"])
    @pytest.mark.parametrize(
        "text, code",
        [("p cnf 0 0\n", 10), ("p cnf 0 1\n0\n", 20)],
        ids=["sat", "unsat"],
    )
    def test_solve_answers_a_formula_without_variables(
        self, tmp_path, flags, text, code, capsys
    ):
        path = tmp_path / "empty.cnf"
        path.write_text(text)
        assert main(["solve", str(path), *flags]) == code
        out = capsys.readouterr().out
        assert "c winner=" in out
        assert ("v 0" in out.splitlines()) == (code == 10)


class TestFigure1Command:
    def test_figure1_renders(self, capsys):
        assert main(["figure1", "--samples", "60000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "legend" in out


class TestArgumentParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_engine_rejected(self, sat_file):
        with pytest.raises(SystemExit):
            main(["check", sat_file, "--engine", "quantum"])

    def test_carrier_choices_match_the_noise_registry(self):
        from repro.cli import CARRIERS
        from repro.noise.base import available_carriers

        assert list(CARRIERS) == available_carriers()

    @pytest.mark.parametrize("command", ["check", "solve", "batch", "serve"])
    def test_unknown_carrier_names_the_carriers(self, command, sat_file, capsys):
        from repro.noise.base import available_carriers

        argv = [command] + ([] if command == "serve" else [sat_file])
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--carrier", "bogus"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "bogus" in err
        assert all(name in err for name in available_carriers())

    def test_help_states_exit_code_convention(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "10 SAT" in out and "20 UNSAT" in out


@pytest.fixture
def batch_dir(tmp_path):
    from repro.cnf.generators import planted_ksat

    directory = tmp_path / "instances"
    directory.mkdir()
    for index in range(3):
        formula, _ = planted_ksat(6, 15, seed=index)
        write_dimacs_file(formula, directory / f"sat-{index}.cnf")
    write_dimacs_file(section4_unsat_instance(), directory / "unsat-0.cnf")
    return directory


class TestBatchCommand:
    def test_batch_directory_smoke(self, batch_dir, capsys):
        code = main(
            ["batch", str(batch_dir), "--workers", "1",
             "--samples", "20000", "--seed", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "4 instances" in out
        # Status-count lines ("SAT" alone would match inside "UNSAT").
        assert "SAT      3" in out
        assert "UNSAT    1" in out
        assert "cache" in out

    def test_batch_parallel_workers(self, batch_dir, capsys):
        code = main(["batch", str(batch_dir), "--workers", "2", "--samples", "20000"])
        assert code == 0
        assert "workers=2" in capsys.readouterr().out

    def test_batch_cache_dir_warm_second_run(self, batch_dir, tmp_path, capsys):
        # --no-preprocess so every instance keys on its own fingerprint
        # (with preprocessing, instances sharing a reduced core would
        # already hit the cache within the cold run).
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["batch", str(batch_dir), "--cache-dir", cache_dir,
             "--samples", "20000", "--no-preprocess"]
        ) == 0
        cold = capsys.readouterr().out
        assert "0 hits" in cold
        assert main(
            ["batch", str(batch_dir), "--cache-dir", cache_dir,
             "--samples", "20000", "--no-preprocess"]
        ) == 0
        warm = capsys.readouterr().out
        assert "4 hits" in warm and "100% of batch" in warm

    def test_batch_reads_a_cache_dir_with_a_non_default_shard_count(
        self, batch_dir, tmp_path, capsys
    ):
        from repro.runtime import ShardedResultCache

        cache_dir = str(tmp_path / "cache")
        ShardedResultCache(cache_dir, shards=16).close()
        argv = ["batch", str(batch_dir), "--cache-dir", cache_dir,
                "--samples", "20000", "--no-preprocess"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert f"c loaded 4 cached results from {cache_dir}" in captured.out
        assert "4 hits" in captured.out
        assert "warning" not in captured.err
        assert ShardedResultCache(cache_dir).num_shards == 16

    def test_batch_corrupt_cache_dir_degrades_gracefully(
        self, batch_dir, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "shard-000.json").write_text("truncated{")
        code = main(
            ["batch", str(batch_dir), "--cache-dir", str(cache_dir),
             "--samples", "20000"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "warning: ignoring cache directory" in captured.err
        assert "4 instances" in captured.out

    def test_batch_persist_failure_warns_and_keeps_verdicts(
        self, batch_dir, tmp_path, capsys
    ):
        # Every WAL append fails: the batch still succeeds, warns, and the
        # in-memory verdicts reach the snapshot at the closing compaction.
        from repro import faults
        from repro.faults import FaultPlan
        from repro.runtime import ShardedResultCache

        cache_dir = tmp_path / "cache"
        faults.install_plan(
            FaultPlan([dict(point="shards.wal.append", kind="error", times=0)])
        )
        try:
            code = main(
                ["batch", str(batch_dir), "--cache-dir", str(cache_dir),
                 "--solver", "cdcl", "--no-preprocess"]
            )
        finally:
            faults.clear_plan()
        captured = capsys.readouterr()
        assert code == 0
        assert "4 instances" in captured.out
        assert "warning: 4 verdicts could not be persisted" in captured.err
        assert len(ShardedResultCache(cache_dir)) == 4

    def test_concurrent_batches_share_one_cache_dir(self, tmp_path, capsys):
        # Two batches running at once into one directory both keep their
        # verdicts (a single rewritten file kept only the last writer's):
        # a third run over both halves is served entirely from the cache.
        from repro.cnf.generators import planted_ksat

        halves = []
        for half in range(2):
            directory = tmp_path / f"half-{half}"
            directory.mkdir()
            for index in range(3):
                formula, _ = planted_ksat(8, 20, seed=10 * half + index)
                write_dimacs_file(formula, directory / f"sat-{index}.cnf")
            halves.append(str(directory))
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ, PYTHONPATH=SRC)
        batches = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "batch", half,
                 "--cache-dir", cache_dir, "--solver", "cdcl",
                 "--no-preprocess"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for half in halves
        ]
        for batch in batches:
            out, err = batch.communicate(timeout=120)
            assert batch.returncode == 0, err
            assert "3 instances" in out and "0 hits" in out
        assert main(
            ["batch", *halves, "--cache-dir", cache_dir, "--solver", "cdcl",
             "--no-preprocess"]
        ) == 0
        third = capsys.readouterr().out
        assert "6 hits" in third and "100% of batch" in third

    def test_batch_single_solver_spec(self, batch_dir, capsys):
        code = main(
            ["batch", str(batch_dir), "--solver", "dpll", "--no-preprocess"]
        )
        assert code == 0
        assert "dpll=4" in capsys.readouterr().out

    def test_batch_no_match_exits_nonzero(self, tmp_path, capsys):
        code = main(["batch", str(tmp_path / "nope" / "*.cnf")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_batch_conflicting_solver_flags(self, batch_dir, capsys):
        # --solver is the one way to name a spec; the old --portfolio
        # shorthand is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(batch_dir), "--portfolio", "--solver", "dpll"])
        assert exit_info.value.code == 2
        assert "--portfolio" in capsys.readouterr().err


class TestPreprocessCommand:
    def test_unsat_decided_exit_20(self, unsat_file, capsys):
        assert main(["preprocess", unsat_file]) == 20
        out = capsys.readouterr().out
        assert "c status UNSAT" in out
        assert "p cnf 0 1" in out

    def test_sat_decided_exit_10(self, sat_file, capsys):
        assert main(["preprocess", sat_file]) == 10
        out = capsys.readouterr().out
        assert "c status SAT" in out
        assert "p cnf 0 0" in out

    def test_reduced_output_parses_and_maps(self, tmp_path, capsys):
        from repro.cnf.dimacs import parse_dimacs
        from repro.cnf.generators import random_ksat

        path = tmp_path / "hard.cnf"
        write_dimacs_file(random_ksat(9, 38, 3, seed=123), path)
        # Freeze every variable so nothing can be eliminated: the command
        # must exit 0 with a residual formula.
        freeze = [str(v) for v in range(1, 10)]
        code = main(["preprocess", str(path), "--freeze", *freeze])
        captured = capsys.readouterr()
        assert code == 0
        dimacs = "\n".join(
            line for line in captured.out.splitlines() if not line.startswith("c")
        )
        reduced = parse_dimacs(dimacs)
        assert reduced.num_variables == 9
        assert "clauses" in captured.err

    def test_output_file(self, unsat_file, tmp_path):
        target = tmp_path / "reduced.cnf"
        assert main(["preprocess", unsat_file, "-o", str(target)]) == 20
        assert "p cnf 0 1" in target.read_text()

    def test_technique_subset(self, sat_file, capsys):
        code = main(["preprocess", sat_file, "--techniques", "units,subsumption"])
        assert code in (0, 10, 20)
        assert "c status" in capsys.readouterr().out

    def test_bad_technique_fails(self, sat_file, capsys):
        assert main(["preprocess", sat_file, "--techniques", "magic"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["preprocess", str(tmp_path / "absent.cnf")]) == 1
        assert "error" in capsys.readouterr().err


class TestNoPreprocessFlags:
    def test_check_no_preprocess_runs_engine(self, sat_file, capsys):
        assert main(["check", sat_file]) == 10
        assert "decided in preprocessing" not in capsys.readouterr().out

    def test_solve_model_identical_either_way(self, sat_file, capsys):
        assert main(["solve", sat_file]) == 10
        with_pre = capsys.readouterr().out
        assert main(["solve", sat_file, "--no-preprocess"]) == 10
        without = capsys.readouterr().out
        # Section IV's instance has a unique model: both routes print it.
        assert "v -1 2 0" in with_pre and "v -1 2 0" in without

    def test_batch_preprocess_wins_reported(self, batch_dir, capsys):
        code = main(["batch", str(batch_dir), "--solver", "dpll"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAT      3" in out
        assert "UNSAT    1" in out
        assert "preprocess=" in out  # at least one instance decided by it


class TestIncrementalCommand:
    def _write_script(self, tmp_path, text):
        path = tmp_path / "queries.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_script_with_assumptions_and_scopes(self, tmp_path, capsys):
        script = self._write_script(
            tmp_path,
            """
            # session demo
            var 2
            add 1 2 0
            add -1 -2 0
            solve
            solve 1 0
            push
            add -1
            solve
            pop
            solve 1 2 0
            """,
        )
        assert main(["incremental", script, "--models"]) == 0
        out = capsys.readouterr().out
        assert out.count("s SATISFIABLE") == 3
        assert out.count("s UNSATISFIABLE") == 1
        assert "v " in out
        assert "4 queries" in out

    def test_empty_model_line(self, tmp_path, capsys):
        empty = tmp_path / "empty.cnf"
        empty.write_text("p cnf 0 0\n")
        script = self._write_script(tmp_path, f"load {empty}\nsolve\n")
        assert main(["incremental", script, "--models"]) == 0
        assert "v 0" in capsys.readouterr().out.splitlines()

    def test_load_dimacs_file(self, sat_file, tmp_path, capsys):
        script = self._write_script(tmp_path, f"load {sat_file}\nsolve\n")
        assert main(["incremental", script]) == 0
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_alternative_solver_spec(self, tmp_path, capsys):
        script = self._write_script(tmp_path, "add 1 0\nsolve -1 0\n")
        assert main(["incremental", script, "--solver", "dpll"]) == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unknown_command_fails(self, tmp_path, capsys):
        script = self._write_script(tmp_path, "frobnicate 1 2\n")
        assert main(["incremental", script]) == 1
        assert "unknown command" in capsys.readouterr().err

    def test_missing_script_fails(self, tmp_path, capsys):
        assert main(["incremental", str(tmp_path / "absent.txt")]) == 1
        assert "cannot read script" in capsys.readouterr().err

    def test_pop_without_push_fails(self, tmp_path, capsys):
        script = self._write_script(tmp_path, "pop\n")
        assert main(["incremental", script]) == 1
        assert "pop" in capsys.readouterr().err

    def test_bad_solver_spec_fails(self, tmp_path, capsys):
        script = self._write_script(tmp_path, "solve\n")
        assert main(["incremental", script, "--solver", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_preprocess_flag(self, tmp_path, capsys):
        script = self._write_script(
            tmp_path,
            "add 1 2 0\nadd -1 2 0\nadd 1 -2 0\nsolve\nsolve -1 0\n",
        )
        assert main(["incremental", script, "--preprocess", "--models"]) == 0
        out = capsys.readouterr().out
        assert out.count("s SATISFIABLE") == 1
        assert out.count("s UNSATISFIABLE") == 1

    def test_preprocess_flag_works_for_nbl_spec(self, tmp_path, capsys):
        script = self._write_script(tmp_path, "add 1 0\nsolve\n")
        code = main(
            ["incremental", script, "--solver", "nbl-symbolic", "--preprocess"]
        )
        assert code == 0
        assert "s SATISFIABLE" in capsys.readouterr().out


class TestTelemetryFlags:
    def test_solve_writes_trace_and_metrics(self, sat_file, tmp_path, capsys):
        from repro.telemetry import load_trace

        trace_file = str(tmp_path / "out.jsonl")
        metrics_file = str(tmp_path / "out.prom")
        code = main(
            ["solve", sat_file, "--trace", trace_file, "--metrics", metrics_file]
        )
        assert code == 10
        roots = load_trace(trace_file)
        assert [root.name for root in roots] == ["cli.solve"]
        names = {span.name for root in roots for span in root.walk()}
        assert "preprocess" in names
        assert roots[0].attributes["exit_code"] == 10
        metrics_text = (tmp_path / "out.prom").read_text()
        assert "# TYPE repro_preprocess_runs_total counter" in metrics_text

    def test_solve_metrics_json_snapshot(self, sat_file, tmp_path):
        import json

        metrics_file = tmp_path / "out.json"
        assert main(["solve", sat_file, "--metrics", str(metrics_file)]) == 10
        payload = json.loads(metrics_file.read_text())
        assert "repro_preprocess_runs_total" in payload

    def test_batch_trace_has_pool_and_cache_spans(
        self, batch_dir, tmp_path, capsys
    ):
        from repro.telemetry import load_trace

        trace_file = str(tmp_path / "batch.jsonl")
        code = main(
            ["batch", str(batch_dir), "--solver", "cdcl", "--trace", trace_file]
        )
        assert code == 0
        names = {
            span.name
            for root in load_trace(trace_file)
            for span in root.walk()
        }
        assert "cli.batch" in names
        assert "pool.task" in names
        assert "cache.lookup" in names

    def test_telemetry_is_off_after_the_run(self, sat_file, tmp_path, capsys):
        from repro.telemetry import metrics_active, tracing_active

        main(
            ["solve", sat_file, "--trace", str(tmp_path / "t.jsonl"),
             "--metrics", str(tmp_path / "m.prom")]
        )
        assert not tracing_active()
        assert not metrics_active()


class TestStatsCommand:
    def test_no_inputs_is_usage_error(self, capsys):
        assert main(["stats"]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_reads_back_solve_artifacts(self, sat_file, tmp_path, capsys):
        trace_file = str(tmp_path / "out.jsonl")
        metrics_file = str(tmp_path / "out.prom")
        main(["solve", sat_file, "--trace", trace_file, "--metrics", metrics_file])
        capsys.readouterr()
        code = main(["stats", "--trace", trace_file, "--metrics", metrics_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli.solve" in out
        assert "families" in out

    def test_reads_bench_trajectory(self, tmp_path, capsys):
        from repro.telemetry import BenchRecord, append_bench_record

        bench_file = tmp_path / "BENCH_test.json"
        append_bench_record(
            bench_file,
            BenchRecord(benchmark="cdcl-kernel", metrics={"decisions_per_sec": 10.0}),
        )
        assert main(["stats", "--bench", str(bench_file)]) == 0
        assert "cdcl-kernel" in capsys.readouterr().out

    def test_bad_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nonsense\n")
        assert main(["stats", "--trace", str(bad)]) == 1
        assert main(["stats", "--bench", str(tmp_path / "missing.json")]) == 1
        assert main(["stats", "--metrics", str(tmp_path / "missing.prom")]) == 1

    def test_empty_metrics_file_is_invalid(self, tmp_path, capsys):
        empty = tmp_path / "empty.prom"
        empty.write_text("")
        assert main(["stats", "--metrics", str(empty)]) == 1


@pytest.fixture
def paper_proof(unsat_file, tmp_path):
    """A CLI-emitted DRAT proof for the paper's UNSAT instance."""
    proof = str(tmp_path / "paper.drat")
    assert main(["solve", unsat_file, "--proof", proof]) == 20
    return proof


class TestSolveProofFlag:
    def test_unsat_roundtrip_on_paper_instance(
        self, unsat_file, paper_proof, capsys
    ):
        assert main(["check-proof", unsat_file, paper_proof]) == 0
        assert "s VERIFIED" in capsys.readouterr().out

    def test_no_preprocess_path_also_roundtrips(
        self, unsat_file, tmp_path, capsys
    ):
        proof = str(tmp_path / "direct.drat")
        assert main(["solve", unsat_file, "--proof", proof, "--no-preprocess"]) == 20
        assert main(["check-proof", unsat_file, proof]) == 0
        assert "s VERIFIED" in capsys.readouterr().out

    def test_sat_instance_still_exits_10(self, sat_file, tmp_path, capsys):
        proof = str(tmp_path / "sat.drat")
        assert main(["solve", sat_file, "--proof", proof]) == 10
        out = capsys.readouterr().out
        assert "SATISFIABLE" in out and "v " in out


class TestIncrementalProofFlag:
    def test_session_proof_roundtrips(self, unsat_file, tmp_path, capsys):
        script = tmp_path / "queries.txt"
        script.write_text(f"load {unsat_file}\nsolve\n", encoding="utf-8")
        proof = str(tmp_path / "inc.drat")
        assert main(["incremental", str(script), "--proof", proof]) == 0
        out = capsys.readouterr().out
        assert "s UNSATISFIABLE" in out and proof in out
        assert main(["check-proof", unsat_file, proof]) == 0

    def test_nbl_session_marks_proof_incomplete(self, tmp_path, capsys):
        """The NBL engines emit no derivations: their UNSAT leaves the log
        flagged incomplete, and check-proof rejects it."""
        cnf = tmp_path / "contradiction.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n", encoding="utf-8")
        script = tmp_path / "queries.txt"
        script.write_text(f"load {cnf}\nsolve\n", encoding="utf-8")
        proof = tmp_path / "x.drat"
        code = main(
            ["incremental", str(script), "--solver", "nbl-symbolic",
             "--proof", str(proof)]
        )
        assert code == 0
        assert "s UNSATISFIABLE" in capsys.readouterr().out
        assert "c incomplete" in proof.read_text(encoding="utf-8")
        assert main(["check-proof", str(cnf), str(proof)]) == 1


class TestBatchProofDir:
    def test_proofs_written_per_job(self, batch_dir, tmp_path, capsys):
        proof_dir = tmp_path / "proofs"
        code = main(
            ["batch", str(batch_dir), "--solver", "cdcl",
             "--proof-dir", str(proof_dir)]
        )
        assert code == 0
        assert list(proof_dir.glob("*.drat"))

    def test_portfolio_rejects_proof_dir(self, batch_dir, tmp_path, capsys):
        code = main(
            ["batch", str(batch_dir), "--solver", "portfolio",
             "--proof-dir", str(tmp_path / "proofs")]
        )
        assert code == 1
        assert "classical solver spec" in capsys.readouterr().err


class TestCheckProofCommand:
    def test_verified_exits_0(self, unsat_file, paper_proof, capsys):
        assert main(["check-proof", unsat_file, paper_proof]) == 0
        assert "s VERIFIED" in capsys.readouterr().out

    def test_no_refutation_exits_1(self, unsat_file, paper_proof, tmp_path, capsys):
        lines = [
            line
            for line in open(paper_proof, encoding="utf-8").read().splitlines()
            if line != "0"
        ]
        trimmed = tmp_path / "noempty.drat"
        trimmed.write_text("\n".join(lines) + "\n" if lines else "")
        assert main(["check-proof", unsat_file, str(trimmed)]) == 1
        assert "s REJECTED" in capsys.readouterr().out

    def test_reordered_proof_exits_1(self, unsat_file, paper_proof, tmp_path):
        lines = open(paper_proof, encoding="utf-8").read().splitlines()
        reordered = tmp_path / "reordered.drat"
        reordered.write_text("\n".join(["0"] + [l for l in lines if l != "0"]) + "\n")
        assert main(["check-proof", unsat_file, str(reordered)]) == 1

    def test_torn_line_exits_2(self, unsat_file, tmp_path, capsys):
        torn = tmp_path / "torn.drat"
        torn.write_text("1 2\n")  # missing terminating 0
        assert main(["check-proof", unsat_file, str(torn)]) == 2
        assert "torn" in capsys.readouterr().err

    def test_bad_token_exits_2(self, unsat_file, tmp_path, capsys):
        bad = tmp_path / "bad.drat"
        bad.write_text("1 oops 0\n")
        assert main(["check-proof", unsat_file, str(bad)]) == 2

    def test_missing_files_exit_2(self, unsat_file, paper_proof, tmp_path, capsys):
        assert main(["check-proof", unsat_file, str(tmp_path / "no.drat")]) == 2
        assert main(["check-proof", str(tmp_path / "no.cnf"), paper_proof]) == 2

    def test_help_states_proof_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "check-proof" in out
