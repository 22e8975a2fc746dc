"""The classical path runs without NumPy, and the lazy facades still export.

Parsing, preprocessing, the CDCL kernel, DRAT proofs, the runtime, the
service and the CLI must not import NumPy: only the NBL engines need it.
Each check runs in a fresh interpreter, because this test process has
NumPy (and every facade name) loaded already.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from repro.cnf.dimacs import write_dimacs_file
from repro.cnf.generators import planted_ksat, random_ksat

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def _run_fresh(code: str, *args: str) -> None:
    subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )


def test_classical_path_runs_with_numpy_blocked(tmp_path):
    sat_path = tmp_path / "sat40.cnf"
    unsat_path = tmp_path / "unsat40.cnf"
    write_dimacs_file(planted_ksat(40, 160, seed=0)[0], sat_path)
    write_dimacs_file(random_ksat(40, 400, seed=0), unsat_path)
    _run_fresh(
        """
        import sys

        sys.modules["numpy"] = None  # any `import numpy` now raises ImportError

        import repro.cnf
        import repro.solvers.cdcl
        import repro.runtime
        import repro.service.server
        import repro.cli

        from repro.cli import main
        from repro.cnf.dimacs import parse_dimacs_file
        from repro.runtime import BatchRunner

        sat, unsat, proof_dir = sys.argv[1:]
        (outcome,) = BatchRunner(solver="cdcl", preprocess=True).run([sat]).outcomes
        assert outcome.status == "SAT", outcome
        model = set(outcome.assignment)
        clauses = parse_dimacs_file(sat).clauses
        assert all(any(lit in model for lit in clause) for clause in clauses)

        assert main(["solve", sat, "--proof", proof_dir + "/sat.drat"]) == 10
        assert main(["solve", unsat, "--proof", proof_dir + "/unsat.drat"]) == 20
        assert main(["check-proof", unsat, proof_dir + "/unsat.drat"]) == 0
        assert sys.modules["numpy"] is None
        """,
        str(sat_path),
        str(unsat_path),
        str(tmp_path),
    )


def test_facade_names_resolve_lazily():
    _run_fresh(
        """
        import sys

        import repro
        import repro.cnf
        import repro.solvers

        assert "numpy" not in sys.modules
        for package in (repro, repro.cnf, repro.solvers):
            for name in package.__all__:
                assert getattr(package, name) is not None, (package, name)
                assert name in dir(package), (package, name)

        from repro import NBLSATSolver
        from repro.cnf import CNFFormula

        result = NBLSATSolver(engine="symbolic").solve(
            CNFFormula.from_ints([[1, 2], [-1, -2]])
        )
        assert result.satisfiable
        """
    )
