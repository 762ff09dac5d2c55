"""Fixtures and helpers shared by several test modules."""

import os
import random
import resource
import signal
import subprocess
import sys

import pytest

import flatpoly
from flatpoly import corpus, totpos
from flatpoly.graphkit import graphic_matrix, standard_orientation

from oracles import cographic_presentation

#: Wall-clock limit per test, in seconds.  The slowest test takes about
#: 12 s, so only a test that does not terminate (say, a simplex that cycles)
#: reaches it.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives TEST_TIME_LIMIT_S.  It is not an
    Exception, so neither library code nor hypothesis (which would shrink
    the failing example by running it again) catches it."""


@pytest.fixture(autouse=True)
def _time_limit():
    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


#: Address-space limit of a child process, in bytes.
CHILD_ADDRESS_SPACE = 1_500_000_000


def run_python_limited(args):
    """Run `python args` with flatpoly importable, in a child process whose
    address space is capped at CHILD_ADDRESS_SPACE, so a run that would
    exhaust the machine's memory ends in a MemoryError instead; returns
    the subprocess.CompletedProcess with text output."""
    src = os.path.dirname(os.path.dirname(flatpoly.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS,
                           (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, env=env, preexec_fn=cap)


@pytest.fixture(scope="session")
def flat_corpus():
    """>= 30 flat matrices: graphic, cographic, and TP, all with N <= 12."""
    mats = []
    for name, (n, edges, part1, _c, _b) in corpus.PLANE_BIPARTITE.items():
        D = standard_orientation(n, edges, part1)
        mats.append(("graphic:" + name, graphic_matrix(D)))
    rng = random.Random(101)
    for i in range(8):
        D = corpus.random_eulerian(rng, max_edges=8)
        mats.append(("cographic:%d" % i, cographic_presentation(D)))
    for i in range(8):
        d = rng.randint(2, 3)
        N = rng.randint(d + 1, d + 4)
        net = totpos.random_network(d, N, rng)
        mats.append(("tp:%d" % i, totpos.tp_from_network(net)))
    assert len(mats) >= 30
    assert all(m.cols <= 12 for _, m in mats)
    return mats


#: K3,3 as a bipartite graph (n, edges, part1): the smallest non-planar
#: bipartite graph.
K33 = (6, [(a, b) for a in range(3) for b in range(3, 6)], [0, 1, 2])


def subdivided_k33():
    """K3,3 with edge (0, 3) replaced by the path 0, 6, 7, 3."""
    n, edges, part1 = K33
    return 8, edges[1:] + [(0, 6), (6, 7), (7, 3)], part1 + [7]
