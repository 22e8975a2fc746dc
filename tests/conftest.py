"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time

import numpy as np
import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import planted_ksat
from repro.cnf.paper_instances import (
    example6_instance,
    example7_instance,
    section4_sat_instance,
    section4_unsat_instance,
)
from repro.core.config import NBLConfig
from repro.noise.telegraph import BipolarCarrier
from repro.noise.uniform import UniformCarrier
from repro.preprocess.pipeline import Preprocessor


#: Master seed shared by every randomised test; change it here to re-roll
#: all derived streams at once (the fuzz suites fold per-case indices in).
TEST_MASTER_SEED = 12345


@pytest.fixture
def seed() -> int:
    """The suite-wide master seed for randomised/property tests."""
    return TEST_MASTER_SEED


@pytest.fixture
def rng(seed: int) -> np.random.Generator:
    """A deterministic NumPy generator seeded from the shared master seed."""
    return np.random.default_rng(seed)


@pytest.fixture
def kill_new_children():
    """A function that SIGKILLs the child processes started during the test.

    It waits until every killed process has exited and returns how many
    it killed — how the executor tests lose a process pool's workers.
    """
    before = {process.pid for process in multiprocessing.active_children()}

    def kill() -> int:
        victims = [
            process
            for process in multiprocessing.active_children()
            if process.pid not in before
        ]
        for process in victims:
            os.kill(process.pid, signal.SIGKILL)
        pending = [process.sentinel for process in victims]
        deadline = time.monotonic() + 30
        while pending and time.monotonic() < deadline:
            ready = multiprocessing.connection.wait(pending, timeout=1)
            pending = [sentinel for sentinel in pending if sentinel not in ready]
        assert not pending, "killed worker processes did not exit"
        return len(victims)

    return kill


@pytest.fixture
def sat_instance() -> CNFFormula:
    """The paper's Section IV satisfiable instance (n=2, m=4, one model)."""
    return section4_sat_instance()


@pytest.fixture
def unsat_instance() -> CNFFormula:
    """The paper's Section IV unsatisfiable instance (n=2, m=4)."""
    return section4_unsat_instance()


@pytest.fixture
def example6() -> CNFFormula:
    """Example 6: (x1+x2)(~x1+~x2), two models."""
    return example6_instance()


@pytest.fixture
def example7() -> CNFFormula:
    """Example 7: (x1)(~x1), unsatisfiable."""
    return example7_instance()


@pytest.fixture
def fast_uniform_config() -> NBLConfig:
    """Small-budget configuration with the paper's uniform carrier."""
    return NBLConfig(
        carrier=UniformCarrier(),
        max_samples=120_000,
        block_size=30_000,
        min_samples=30_000,
        seed=7,
    )


@pytest.fixture
def fast_bipolar_config() -> NBLConfig:
    """Small-budget configuration with the high-SNR bipolar carrier."""
    return NBLConfig(
        carrier=BipolarCarrier(),
        max_samples=60_000,
        block_size=15_000,
        min_samples=15_000,
        seed=11,
    )


@pytest.fixture(scope="session")
def shared_core_pair() -> tuple[CNFFormula, CNFFormula]:
    """``(core, shifted)``: two different formulas with one reduced core.

    ``core`` is the preprocessing residual of a planted 40-variable 3-SAT
    instance, so the pipeline leaves it unchanged. ``shifted`` renames
    every variable of ``core`` up by one and adds the unit clause ``[1]``;
    preprocessing it propagates ``x1`` and renumbers back to exactly
    ``core``. A model of ``shifted`` is therefore not a model of ``core``.
    """
    residual = Preprocessor().preprocess(planted_ksat(40, 170, seed=0)[0])
    core = residual.formula
    shifted = CNFFormula.from_ints(
        [[1]]
        + [
            [lit + 1 if lit > 0 else lit - 1 for lit in clause]
            for clause in core.to_ints()
        ],
        core.num_variables + 1,
    )
    return core, shifted
