"""Shared fixtures.

The expensive objects (Paige loops, multiplication groups, the q = 2
triality setup, the automorphism groups) are wrapped in lazy holders so
that whichever test first needs one pays for the build and every later
test reuses it.  The acceptance tests time their own bodies, so the
holder records nothing beyond the value.
"""

import itertools
import os
import time
import tracemalloc
from pathlib import Path

import pytest

from paigeloops import (bundled_loop5, field, loop_from_table,
                        multiplication_group, net_from_loop, paige_loop)
from paigeloops.autos import aut_backtrack, conjugation_autos
from paigeloops.triality import build_triality

ACCEPTANCE_LINES = []

# pytest imports the package from src/ (pythonpath in pyproject.toml); the
# tests that start a Python process import it from there too
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
              else []))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_lines():
    return ACCEPTANCE_LINES


class Lazy:
    """Build-on-first-call holder; call it to get the value.  Records the
    build wall time so a later test can account for work an earlier test
    already triggered."""

    def __init__(self, build):
        self._build = build
        self._value = None
        self.built = False
        self.seconds = 0.0

    def __call__(self):
        if not self.built:
            t0 = time.perf_counter()
            self._value = self._build()
            self.seconds = time.perf_counter() - t0
            self.built = True
        return self._value


def bfs_closure_count(gens, cap=100_000):
    """Independent group-order oracle: breadth-first closure of the
    generator set under composition, on raw image tuples."""
    degree = len(gens[0])
    ident = tuple(range(degree))
    gens = [tuple(int(x) for x in g) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = tuple(g[h[i]] for i in range(degree))
                if prod not in seen:
                    if len(seen) >= cap:
                        raise RuntimeError("closure exceeded the cap")
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


@pytest.fixture(scope="session")
def bfs_order():
    return bfs_closure_count


def traced_peak_mib(fn):
    """The most memory, in MiB, that fn() holds at once above what was
    allocated before it started, as tracemalloc traces it (numpy reports
    its array buffers there); the result of fn counts while it lives."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    return traced_peak_mib


def group_table(elems, op):
    idx = {e: i for i, e in enumerate(elems)}
    return [[idx[op(a, b)] for b in elems] for a in elems]


@pytest.fixture(scope="session")
def s3():
    elems = sorted(itertools.permutations(range(3)))
    op = lambda a, b: tuple(a[b[i]] for i in range(3))
    return loop_from_table(group_table(elems, op))


@pytest.fixture(scope="session")
def c4():
    return loop_from_table(group_table(range(4), lambda a, b: (a + b) % 4))


@pytest.fixture(scope="session")
def klein():
    return loop_from_table(group_table(range(4), lambda a, b: a ^ b))


@pytest.fixture(scope="session")
def loop5():
    return bundled_loop5()


@pytest.fixture(scope="session")
def paige2():
    return paige_loop(2)


@pytest.fixture(scope="session")
def net2(paige2):
    return net_from_loop(paige2)


@pytest.fixture(scope="session")
def paige3():
    return Lazy(lambda: paige_loop(3))


@pytest.fixture(scope="session")
def paige4():
    return Lazy(lambda: paige_loop(4))


@pytest.fixture(scope="session")
def mlt2(paige2):
    return Lazy(lambda: multiplication_group(paige2))


@pytest.fixture(scope="session")
def mlt3(paige3):
    return Lazy(lambda: multiplication_group(paige3()))


@pytest.fixture(scope="session")
def tri2(net2):
    return Lazy(lambda: build_triality(net2))


@pytest.fixture(scope="session")
def aut2(paige2):
    return Lazy(lambda: aut_backtrack(paige2))


@pytest.fixture(scope="session")
def conj2():
    return Lazy(lambda: conjugation_autos(field(2)))
