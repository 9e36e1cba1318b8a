"""Shared test plumbing: collect acceptance verdict lines and echo them
after the run, so the one-line-per-criterion summary survives output capture;
and the Boolean functions and biases that the agreement tests run over.
"""

import numpy as np

from biascube.booleans import (
    BooleanFunction,
    and_all,
    cyclic_run,
    dictator,
    majority,
    or_all,
    parity,
    random_function,
    random_monotone_function,
    tribes,
)

ACCEPTANCE_LINES: list[str] = []

AGREEMENT_BIASES = (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999)


def boolean_cases(n):
    """Every family at arity n, both constants and two seeded random functions."""
    rng = np.random.default_rng(4000 + n)
    yield dictator(n, 1)
    yield dictator(n, n)
    yield and_all(n)
    yield or_all(n)
    yield parity(n)
    if n % 2:
        yield majority(n)
    for k in range(1, n + 1):
        if n % k == 0:
            yield tribes(k, n // k)
    for length in sorted({1, (n + 1) // 2, n}):
        yield cyclic_run(n, length)
    yield BooleanFunction(n, np.zeros(1 << n))
    yield BooleanFunction(n, np.ones(1 << n))
    yield random_function(n, rng)
    yield random_monotone_function(n, rng)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
