"""Deterministic benchmark corpus: every instance is generated from a seed.

Nothing is downloaded and nothing comes from the program under test: the
generators below use only :mod:`random`, so a change to ``src/`` can never
change the inputs the benchmark feeds it.  Each instance carries a manifest
entry saying why it is in the corpus and what its answer must be:

* ``expect="SAT"``   -- satisfiable by construction (planted model, open chain);
* ``expect="UNSAT"`` -- unsatisfiable by construction (pigeonhole,
  over-constrained colouring, paper instances);
* ``expect="?"``     -- status unknown (phase-transition random k-SAT): a SAT
  answer is checked by its model, an UNSAT answer must be certified once by a
  DRAT proof (see :mod:`checks`).

The same seed always yields byte-identical DIMACS text.  Seed 20261016 is
kept back: it was not used while the benchmark was tuned, so a later claim
can be confirmed on it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

#: A seed never used while this benchmark was developed (for later claims).
HELD_OUT_SEED = 20261016

#: Roots of the fixed random problems of ``files-large`` and ``files-hard``.
#: The cost of a random instance varies from one draw to the next (by ~15%
#: at 3000 variables, ~60% at the threshold), far more than a regression
#: bound, so a corpus drawn fresh per seed cannot give a steady throughput.
#: The workload seed scrambles these problems instead: new bytes, new
#: search paths, same underlying problem.
LARGE_BASE_SEED = 3000
HARD_BASE_SEED = 4260


@dataclass
class Instance:
    """One corpus entry: clauses as DIMACS ints plus its manifest fields."""

    name: str
    num_variables: int
    clauses: list[list[int]]
    expect: str
    why: str
    tags: dict = field(default_factory=dict)

    def dimacs(self) -> str:
        lines = [f"c {self.name}: {self.why}"]
        lines.append(f"p cnf {self.num_variables} {len(self.clauses)}")
        lines.extend(" ".join(map(str, c)) + " 0" for c in self.clauses)
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "variables": self.num_variables,
            "clauses": len(self.clauses),
            "expect": self.expect,
            "why": self.why,
        }


def _rng(seed: int, *salt) -> random.Random:
    # String seeding is stable across processes (unlike hash()).
    return random.Random("|".join(map(str, (seed,) + salt)))


def scramble(clauses, num_variables: int, rng: random.Random) -> list[list[int]]:
    """Rename variables, flip polarities and shuffle clause/literal order.

    Satisfiability is preserved exactly, so an instance that is UNSAT by
    construction stays UNSAT while the solver sees different input bytes.
    """
    perm = list(range(1, num_variables + 1))
    rng.shuffle(perm)
    flip = [rng.random() < 0.5 for _ in range(num_variables + 1)]
    out = []
    for clause in clauses:
        lits = [
            (perm[abs(l) - 1] if (l > 0) != flip[abs(l)] else -perm[abs(l) - 1])
            for l in clause
        ]
        rng.shuffle(lits)
        out.append(lits)
    rng.shuffle(out)
    return out


def random_ksat(n: int, m: int, k: int, rng: random.Random) -> list[list[int]]:
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        for _ in range(m)
    ]


def planted_ksat(n: int, m: int, k: int, rng: random.Random) -> list[list[int]]:
    """Random k-SAT restricted to clauses the hidden model satisfies."""
    model = [None] + [rng.random() < 0.5 for _ in range(n)]
    clauses = []
    while len(clauses) < m:
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        if any((l > 0) == model[abs(l)] for l in clause):
            clauses.append(clause)
    return clauses


def pigeonhole(pigeons: int, holes: int) -> list[list[int]]:
    def var(i, j):
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a, b in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(a, j), -var(b, j)])
    return clauses


def coloring(edges, vertices: int, colors: int) -> list[list[int]]:
    def var(v, c):
        return v * colors + c + 1

    clauses = []
    for v in range(vertices):
        clauses.append([var(v, c) for c in range(colors)])
        for a, b in itertools.combinations(range(colors), 2):
            clauses.append([-var(v, a), -var(v, b)])
    for u, v in edges:
        for c in range(colors):
            clauses.append([-var(u, c), -var(v, c)])
    return clauses


def implication_chain(n: int) -> list[list[int]]:
    """x1 and x_i -> x_{i+1}: one model, found by unit propagation alone."""
    return [[1]] + [[-i, i + 1] for i in range(1, n)]


# -- workload corpora ----------------------------------------------------------


def files_large(seed: int, cycle: int) -> list[Instance]:
    """Large, easy files: parse, build and preprocess dominate."""
    out = []
    n = 3000
    for k in range(2):
        base = random_ksat(n, 3 * n, 3, _rng(LARGE_BASE_SEED, "large-rand", k))
        out.append(
            Instance(
                f"rand3-n{n}-r3.0-{k}",
                n,
                scramble(base, n, _rng(seed, "large-rand", cycle, k)),
                "?",
                "random 3-SAT far below the threshold (ratio 3.0): big input, "
                "easy search, so ingestion and preprocessing dominate",
            )
        )
    n = 60_000
    out.append(
        Instance(
            f"chain-n{n}",
            n,
            scramble(implication_chain(n), n, _rng(seed, "chain", cycle)),
            "SAT",
            "60k-variable implication chain, scrambled: decided by unit "
            "propagation, so the run is pure parse/build/preprocess cost",
        )
    )
    return out


#: Draws of ``random_ksat(150, 639, 3, _rng(HARD_BASE_SEED, "hard-rand", k))``
#: used by ``files-hard``.  They are UNSAT (each certified once per checkout
#: by a checked DRAT proof): UNSAT search work varies by ~15% under
#: scrambling, where the luck of a SAT search varies by ~60%.
HARD_RANDOM_DRAWS = (5, 6, 7, 8, 9, 10)


def hard_random_base(k: int) -> tuple[int, list[list[int]]]:
    n = 150
    return n, random_ksat(n, round(n * 4.26), 3, _rng(HARD_BASE_SEED, "hard-rand", k))


def files_hard(seed: int, cycle: int) -> list[Instance]:
    """Small, hard files: the CDCL kernel dominates."""
    out = []
    n, ratio = 150, 4.26
    m = round(n * ratio)
    for k in HARD_RANDOM_DRAWS:
        _, base = hard_random_base(k)
        out.append(
            Instance(
                f"rand3-n{n}-r{ratio}-d{k}",
                n,
                scramble(base, n, _rng(seed, "hard-rand", cycle, k)),
                "?",
                "phase-transition random 3-SAT: the hardest random region "
                "for CDCL search",
                tags={"base": k},
            )
        )
    for k in range(2):
        base = planted_ksat(n, m, 3, _rng(HARD_BASE_SEED, "hard-planted", k))
        out.append(
            Instance(
                f"planted3-n{n}-r{ratio}-{k}",
                n,
                scramble(base, n, _rng(seed, "hard-planted", cycle, k)),
                "SAT",
                "planted 3-SAT at the threshold: SAT by construction, search "
                "must find a model",
            )
        )
    out.append(
        Instance(
            "php-7-6",
            42,
            scramble(pigeonhole(7, 6), 42, _rng(seed, "php", cycle)),
            "UNSAT",
            "pigeonhole 7->6, scrambled: UNSAT by construction and "
            "exponential for resolution, a conflict-heavy kernel load",
        )
    )
    out.append(
        Instance(
            "k5-4col",
            20,
            scramble(coloring(_K5, 5, 4), 20, _rng(seed, "k5", cycle)),
            "UNSAT",
            "K5 with 4 colours, scrambled: over-constrained colouring, "
            "UNSAT by construction",
        )
    )
    return out


_K4 = list(itertools.combinations(range(4), 2))
_K5 = list(itertools.combinations(range(5), 2))


def service_is_medium(j: int) -> bool:
    """Whether the ``j``-th service formula is a medium (``cdcl``) one."""
    return j % 4 == 2 or j % 16 == 7


def service_formula(seed: int, j: int) -> Instance:
    """The ``j``-th distinct formula of the service stream.

    Small formulas (8-12 variables, about 70% of the stream) take the
    server's default solver, which the symbolic NBL engine wins; medium ones
    (50-150 variables, and php-6-5) ask for ``cdcl``.  Kinds and sizes
    follow ``j`` round-robin, so every seed sends the same cost mix and only
    the clauses differ.  Every answer is checkable: SAT formulas are
    planted, UNSAT ones are pigeonhole or colouring instances.
    """
    rng = _rng(seed, "service", j)
    if j % 4 == 2:
        n = (50, 100, 150)[(j // 4) % 3]
        return Instance(
            f"svc{j}-planted-n{n}", n, planted_ksat(n, round(n * 3.5), 3, rng),
            "SAT", "medium planted 3-SAT for cdcl", tags={"solver": "cdcl"},
        )
    if j % 16 == 7:
        return Instance(f"svc{j}-php-6-5", 30, scramble(pigeonhole(6, 5), 30, rng),
                        "UNSAT", "medium UNSAT by construction", tags={"solver": "cdcl"})
    if j % 8 == 3:
        name, clauses = ("php-4-3", pigeonhole(4, 3)) if j % 16 == 3 else (
            "k4-3col", coloring(_K4, 4, 3))
        return Instance(f"svc{j}-{name}", 12, scramble(clauses, 12, rng), "UNSAT",
                        "small UNSAT by construction")
    n = (8, 10, 12)[j % 3]
    return Instance(
        f"svc{j}-planted-n{n}", n, planted_ksat(n, round(n * 4.0), 3, rng),
        "SAT", "small planted 3-SAT for the default portfolio",
    )


def oversize_formula(seed: int, n: int) -> Instance:
    """A planted 3-SAT request whose JSON line is far over 64 KiB."""
    return Instance(
        f"oversize-n{n}", n, planted_ksat(n, 3 * n, 3, _rng(seed, "oversize")),
        "SAT", "request line over asyncio's default 64 KiB stream limit",
    )


def nbl_paper() -> list[Instance]:
    """The paper's five instances (Section IV and Examples 5-7).

    They are fixed by the paper; the workload seed only picks the noise
    seeds.  Each entry names its carrier: the paper's uniform [-0.5, 0.5]
    carrier everywhere except Example 5.  With n*m = 12 noise products its
    checks sit about 0.4 standard errors from the threshold after 1M
    uniform samples, so roughly a third of its verdicts are wrong (Example
    5 would need ~150M samples per check); the bipolar carrier puts the
    same checks about 5 standard errors away at the same budget.
    """
    uniform = "uniform-0.5"
    return [
        Instance("section4-unsat", 2, [[1, 2], [1, -2], [-1, 2], [-1, -2]], "UNSAT",
                 "paper Section IV UNSAT instance (n=2, m=4)", {"carrier": uniform}),
        Instance("section4-sat", 2, [[1, 2], [1, 2], [-1, 2], [-1, -2]], "SAT",
                 "paper Section IV SAT instance (n=2, m=4), one model", {"carrier": uniform}),
        Instance("example5", 3, [[1], [2, -3], [-1, 3], [1, -2, 3]], "SAT",
                 "paper Example 5 (n=3, m=4): the largest n*m of the five", {"carrier": "bipolar"}),
        Instance("example6", 2, [[1, 2], [-1, -2]], "SAT",
                 "paper Example 6 (n=2, m=2), two models", {"carrier": uniform}),
        Instance("example7", 1, [[1], [-1]], "UNSAT",
                 "paper Example 7, the minimal UNSAT instance", {"carrier": uniform}),
    ]
