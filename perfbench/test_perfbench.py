"""The benchmark's own tests: repeatable inputs and counts, and a checker that catches lies.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import os

import pytest

import checks
import corpus
import loadgen
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- corpus ----------------------------------------------------------------------


def test_same_seed_same_inputs_other_seed_other_inputs():
    for make in (corpus.files_large, corpus.files_hard):
        first = [i.dimacs() for i in make(3, 0)]
        assert first == [i.dimacs() for i in make(3, 0)]
        assert first != [i.dimacs() for i in make(4, 0)]
        assert first != [i.dimacs() for i in make(3, 1)]
    a, b = loadgen.Stream(3), loadgen.Stream(3)
    assert [a.take() for _ in range(40)] == [b.take() for _ in range(40)]


def test_manifest_entries_say_why():
    for inst in corpus.files_hard(0, 0) + corpus.files_large(0, 0) + corpus.nbl_paper():
        entry = inst.manifest()
        assert entry["why"] and entry["expect"] in ("SAT", "UNSAT", "?")


def test_scramble_keeps_satisfiability():
    n, clauses = 3, [[1, 2], [-1, 3], [-2, -3]]
    model = [1, -2, 3]
    rng = corpus._rng(0, "t")
    perm_rng = corpus._rng(0, "t")
    scrambled = corpus.scramble(clauses, n, rng)
    # Rebuild the renaming the scramble used and carry the model through it.
    perm = list(range(1, n + 1))
    perm_rng.shuffle(perm)
    flip = [perm_rng.random() < 0.5 for _ in range(n + 1)]
    image = [perm[abs(l) - 1] * (1 if (l > 0) != flip[abs(l)] else -1) for l in model]
    assert checks.satisfies(scrambled, image)


def test_stream_mixes_cold_and_warm_with_lag():
    stream = loadgen.Stream(1)
    taken = [stream.take() for _ in range(200)]
    # After the first WARM_LAG requests (all cold), every fifth is cold: 1:4.
    late = range(loadgen.WARM_LAG, len(taken))
    assert [i for i in late if taken[i][2]] == [i for i in late if i % loadgen.COLD_EVERY == 0]
    first_cold = {}
    for i, (_, j, is_cold, _) in enumerate(taken):
        if is_cold:
            first_cold[j] = i
        else:
            assert i - first_cold[j] >= loadgen.WARM_LAG
    line = stream.oversize_line()
    assert len(line.encode()) > 64 * 1024


# -- checker ---------------------------------------------------------------------------


CLAUSES = [[1, 2], [-1, 2], [-2, 3]]


def test_checker_accepts_right_answers():
    assert checks.check_verdict("SAT", [1, 2, 3], CLAUSES, "SAT") == ""
    assert checks.check_verdict("SAT", [-1, 2, 3], CLAUSES, "?") == ""
    assert checks.check_verdict("UNSAT", None, [[1], [-1]], "UNSAT") == ""


def test_checker_catches_planted_wrong_model():
    assert checks.check_verdict("SAT", [1, 2, -3], CLAUSES, "SAT")
    assert checks.check_verdict("SAT", [1, -1, 2, 3], CLAUSES, "SAT")  # contradictory
    assert checks.check_verdict("SAT", [2], CLAUSES, "SAT")  # missing literals count false
    assert checks.check_verdict("SAT", None, CLAUSES, "SAT")


def test_checker_catches_planted_wrong_verdict():
    assert checks.check_verdict("UNSAT", None, CLAUSES, "SAT")
    assert checks.check_verdict("UNSAT", None, CLAUSES, "?")  # uncertified UNSAT
    assert checks.check_verdict("SAT", [1, 2, 3], CLAUSES, "UNSAT")
    assert checks.check_verdict("UNKNOWN", None, CLAUSES, "SAT")


def test_certificates_check_proofs_and_cache(tmp_path):
    path = str(tmp_path / "certs.json")
    php = corpus.pigeonhole(4, 3)
    assert checks.Certificates(path).status(12, php) == "UNSAT"
    assert checks.Certificates(path).status(3, CLAUSES) == "SAT"
    assert len(checks.Certificates(path)._known) == 2


def test_files_workload_counts_every_wrong_answer(monkeypatch, tmp_path):
    small = corpus.files_hard
    monkeypatch.setattr(
        corpus, "files_hard",
        lambda seed, cycle: [i for i in small(seed, cycle) if "rand3" not in i.name],
    )

    def liar(path):  # says SAT with an all-true model to everything
        with open(path) as handle:
            n = int(next(l for l in handle if l.startswith("p")).split()[2])
        return "SAT", list(range(1, n + 1))

    run = workloads.run_files(ROOT, "files-hard", 0, 0, False, str(tmp_path),
                              cycles=1, solve=liar, setup_repeats=1)
    assert len(run.ops) == run.failed == len(corpus.files_hard(0, 0)) > 0


def test_nbl_workload_catches_wrong_verdicts():
    def liar(inst, formula, seed):
        return ("UNSAT" if inst.expect == "SAT" else "SAT"), [1], 1, 1

    run = workloads.run_nbl(ROOT, 0, 0, False, cycles=1, solve=liar, setup_repeats=1)
    assert run.failed == len(run.ops) == 5


# -- repeatable counts --------------------------------------------------------------------


def _counts(run):
    return [(op.slot, op.cycle, op.error) for op in run.ops], run.trace["counters"]


def test_nbl_counts_repeat(monkeypatch):
    monkeypatch.setattr(workloads, "NBL_SAMPLES", 20_000)
    monkeypatch.setattr(workloads, "NBL_BLOCK", 10_000)
    runs = [workloads.run_nbl(ROOT, 5, 0, True, cycles=1, setup_repeats=1) for _ in range(2)]
    verdicts, counters = _counts(runs[0])
    assert (verdicts, counters) == _counts(runs[1])
    assert counters["noise.values"] > 0 and counters["core.checks"] >= 5


def test_kernel_counts_repeat(monkeypatch, tmp_path):
    small = corpus.files_hard
    monkeypatch.setattr(
        corpus, "files_hard",
        lambda seed, cycle: [i for i in small(seed, cycle) if "rand3" not in i.name],
    )
    runs = [
        workloads.run_files(ROOT, "files-hard", 5, 0, True, str(tmp_path / str(k)),
                            cycles=1, setup_repeats=1)
        for k in range(2)
    ]
    verdicts, counters = _counts(runs[0])
    assert not any(error for _, _, error in verdicts)
    assert (verdicts, counters) == _counts(runs[1])
    assert counters["cdcl.conflicts"] > 0 and counters["cdcl.propagations"] > 0


def test_service_counts_repeat(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "CALIBRATION_REQUESTS", 20)
    runs = [
        workloads.run_service(ROOT, 5, 0, True, str(tmp_path / str(k)),
                              requests=40, setup_repeats=1)
        for k in range(2)
    ]
    for run in runs:
        assert run.failed == 0 and len(run.ops) == 40
    stream = loadgen.Stream(5)
    warm = sum(not stream.take()[2] for _ in range(40))
    assert runs[0].extra["cache_hits"] == runs[1].extra["cache_hits"] == warm > 0
    assert runs[0].trace["counters"]["cdcl.conflicts"] == runs[1].trace["counters"]["cdcl.conflicts"]
    assert runs[0].extra["oversize"] == runs[1].extra["oversize"]


# -- tracer -------------------------------------------------------------------------------


class _Toy:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


def test_tracer_self_time_and_uninstall():
    tracer = spans.Tracer()
    targets = [
        (__name__, "_Toy.outer", "toy.outer", None),
        (__name__, "_Toy.inner", "toy.inner", None),
        (__name__, "_Toy.make", "toy.make", None),
    ]
    original = _Toy.__dict__["outer"]
    installed = spans.install(tracer, targets)
    try:
        assert isinstance(_Toy.make(), _Toy)
        assert _Toy().outer() == 2
    finally:
        installed.uninstall()
    assert _Toy.__dict__["outer"] is original
    assert isinstance(_Toy.__dict__["make"], classmethod)
    summary = tracer.summary()
    assert summary["calls"] == {"toy.make": 1, "toy.outer": 1, "toy.inner": 1}
    outer, inner = summary["total"]["toy.outer"], summary["total"]["toy.inner"]
    assert summary["self"]["toy.outer"] == pytest.approx(outer - inner)


def test_every_declared_metric_is_computed():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    run = workloads.Run("files-hard", ops=[workloads.Op("a", 0, 1.0)], setup=[0.1],
                        peak_rss_mb=1.0, latencies_ms=[1.0],
                        extra={"trace_overhead_share": 0.0},
                        trace={"self": {}, "total": {}, "calls": {}, "counters": {}})
    layers = workloads.per_layer(run)
    assert {m["name"] for m in spec["per_layer"]} <= set(layers)
    assert {m["name"] for m in spec["end_to_end"]} <= set(workloads.end_to_end(run))
