"""Algorithm 2 — satisfying-assignment determination via iterated NBL checks.

The paper recovers a satisfying assignment with at most ``n`` additional
check operations: in iteration ``i`` the reference hyperspace ``τ_N`` is
restricted to the subspace ``x_i = 1``; if the reduced ``S_N`` still has a
positive mean the solution lies in that subspace and ``x_i`` is kept at 1,
otherwise it must lie in the complementary subspace and ``x_i`` is bound
to 0. The cube variant (mentioned at the end of Section III-E) additionally
tests both polarities and omits variables for which both subspaces remain
satisfiable (don't-cares).

The implementation works with *any* engine exposing
``check(bindings) -> CheckResult`` — the sampled engine, the symbolic
engine, or the analog and SBL engines.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula, is_tautology
from repro.core.result import AssignmentResult, CheckResult


class SupportsCheck(Protocol):
    """Structural type of every NBL-SAT engine usable by Algorithm 2."""

    formula: CNFFormula

    def check(self, bindings=None) -> CheckResult:  # pragma: no cover - protocol
        ...


def _engine_formula(engine) -> CNFFormula:
    formula = getattr(engine, "formula", None)
    if formula is None:
        raise TypeError("engine must expose a .formula attribute")
    return formula


def find_satisfying_assignment(
    engine: SupportsCheck,
    initial_check: Optional[CheckResult] = None,
    verify: bool = True,
) -> AssignmentResult:
    """Paper Algorithm 2: determine a satisfying minterm with ≤ n+1 checks.

    Parameters
    ----------
    engine:
        Any NBL-SAT engine bound to the target formula.
    initial_check:
        Result of a previously run Algorithm 1 check; if omitted, one is run
        first (the paper assumes Algorithm 1 has already declared the
        instance satisfiable).
    verify:
        When ``True`` (default), the returned assignment is evaluated
        against the CNF formula and the result recorded in
        :attr:`AssignmentResult.verified`.

    Returns
    -------
    AssignmentResult
        The assignment (complete over all variables) and the per-iteration
        check results.
    """
    formula = _engine_formula(engine)
    checks: list[CheckResult] = []

    if initial_check is None:
        initial_check = engine.check()
        checks.append(initial_check)
    if not initial_check.satisfiable:
        return AssignmentResult(
            satisfiable=False,
            assignment=None,
            checks=checks,
            verified=False,
            total_samples=sum(c.samples_used for c in checks),
        )

    bindings: dict[int, bool] = {}
    for variable in range(1, formula.num_variables + 1):
        trial = dict(bindings)
        trial[variable] = True
        result = engine.check(trial)
        checks.append(result)
        if result.satisfiable:
            # The solution lies in the x_i = 1 subspace (paper line 7 keeps
            # the positive literal).
            bindings[variable] = True
        else:
            # Algorithm 1 already established satisfiability, so the solution
            # must lie in the complementary x_i = 0 subspace.
            bindings[variable] = False

    assignment = Assignment(bindings)
    verified = formula.evaluate(assignment.as_dict()) if verify else False
    return AssignmentResult(
        satisfiable=True,
        assignment=assignment,
        checks=checks,
        verified=verified,
        total_samples=sum(c.samples_used for c in checks),
    )


def find_satisfying_cube(
    engine: SupportsCheck,
    initial_check: Optional[CheckResult] = None,
    verify: bool = True,
) -> AssignmentResult:
    """The cube variant of Algorithm 2, exactly as the paper describes it.

    Each variable is bound to both polarities (on top of the bindings kept so
    far); if *both* reduced instances remain satisfiable the variable is
    omitted from the result (a don't-care), otherwise the satisfiable
    polarity is kept. The returned assignment is a (possibly partial) cube.

    Note that the paper's rule produces a cube that is guaranteed to
    *contain* a satisfying assignment, but not necessarily a cube all of
    whose completions satisfy the formula (an implicant): dropping a
    variable because both subspaces contain *some* model does not make the
    variable irrelevant. ``verified`` therefore records the former property
    (the cube contains a model). Use :func:`find_prime_implicant_cube` for
    the stronger, implicant-producing variant built on the same NBL
    primitive (the S_N mean is proportional to the model count).
    """
    formula = _engine_formula(engine)
    checks: list[CheckResult] = []

    if initial_check is None:
        initial_check = engine.check()
        checks.append(initial_check)
    if not initial_check.satisfiable:
        return AssignmentResult(
            satisfiable=False,
            assignment=None,
            checks=checks,
            verified=False,
            total_samples=sum(c.samples_used for c in checks),
        )

    bindings: dict[int, bool] = {}
    dont_cares: list[int] = []
    for variable in range(1, formula.num_variables + 1):
        positive_trial = dict(bindings)
        positive_trial[variable] = True
        positive_result = engine.check(positive_trial)
        checks.append(positive_result)

        negative_trial = dict(bindings)
        negative_trial[variable] = False
        negative_result = engine.check(negative_trial)
        checks.append(negative_result)

        if positive_result.satisfiable and negative_result.satisfiable:
            dont_cares.append(variable)
        elif positive_result.satisfiable:
            bindings[variable] = True
        else:
            bindings[variable] = False

    assignment = Assignment(bindings)
    verified = False
    if verify:
        verified = _verify_cube(formula, bindings, dont_cares)
    return AssignmentResult(
        satisfiable=True,
        assignment=assignment,
        checks=checks,
        verified=verified,
        total_samples=sum(c.samples_used for c in checks),
        dont_care_variables=dont_cares,
    )


def _verify_cube(
    formula: CNFFormula, bindings: dict[int, bool], dont_cares: list[int]
) -> bool:
    """Check that the cube defined by ``bindings`` contains a satisfying assignment."""
    residual = formula
    for variable, value in bindings.items():
        residual = residual.condition(variable, value)
    if residual.has_empty_clause():
        return False
    if residual.num_clauses == 0:
        return True
    # Any model of the residual formula completes the cube into a model of
    # the original formula; exhaustive counting is fine at NBL-scale sizes.
    from repro.cnf.evaluate import count_models

    return count_models(residual) > 0


def _is_implicant(formula: CNFFormula, bindings: dict[int, bool]) -> bool:
    """Check that *every* completion of the cube satisfies the formula."""
    residual = formula
    for variable, value in bindings.items():
        residual = residual.condition(variable, value)
    if residual.has_empty_clause():
        return False
    return all(map(is_tautology, residual))


def find_prime_implicant_cube(
    engine: SupportsCheck,
    initial_check: Optional[CheckResult] = None,
    verify: bool = True,
    count_tolerance: float = 0.5,
) -> AssignmentResult:
    """Extension of Algorithm 2: shrink a satisfying minterm into an implicant cube.

    The paper observes that the mean of the reduced ``S_N`` is proportional
    to the number of satisfying minterms in the bound subspace. A cube is an
    implicant exactly when *every* minterm in it is satisfying, i.e. when
    the estimated model count of the cube equals the cube's size
    ``2^{#free variables}``. This routine first runs the minterm variant of
    Algorithm 2, then greedily frees one variable at a time, keeping a
    variable free only when the count test (within ``count_tolerance``)
    confirms the enlarged cube is still an implicant.

    Intended for the symbolic/ideal engine, where the count estimate is
    exact; with the sampled engine the count estimate is noisy and the
    tolerance governs how aggressively variables are dropped.
    """
    formula = _engine_formula(engine)
    base = find_satisfying_assignment(engine, initial_check=initial_check, verify=verify)
    if not base.satisfiable or base.assignment is None:
        return base

    checks = list(base.checks)
    bindings = base.assignment.as_dict()
    dont_cares: list[int] = []
    for variable in range(1, formula.num_variables + 1):
        trial = {v: val for v, val in bindings.items() if v != variable}
        result = engine.check(trial)
        checks.append(result)
        free_count = formula.num_variables - len(trial)
        cube_size = float(2**free_count)
        if result.satisfiable and result.estimated_model_count >= cube_size - count_tolerance:
            bindings = trial
            dont_cares.append(variable)

    assignment = Assignment(bindings)
    verified = _is_implicant(formula, bindings) if verify else False
    return AssignmentResult(
        satisfiable=True,
        assignment=assignment,
        checks=checks,
        verified=verified,
        total_samples=sum(c.samples_used for c in checks),
        dont_care_variables=dont_cares,
    )

