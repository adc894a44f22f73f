import os
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI tests start `python -m ipir.cli` children, which must import this
# checkout's package as the tests do, also when pytest alone put src/ on
# sys.path (its `pythonpath` setting)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
)

from ipir import obfuscation
from ipir.core import (
    ConditionalMatrix,
    MessageStore,
    SystemConfig,
    conditional_from_joint,
    fork_rng,
    validate_joint,
)
from ipir.intermittent import local_transport


@pytest.fixture
def pair_joint():
    """K=2 correlated law: diagonal 3/8, off-diagonal 1/8."""
    return validate_joint([[F(3, 8), F(1, 8)], [F(1, 8), F(3, 8)]])


@pytest.fixture
def pair_cond(pair_joint):
    return conditional_from_joint(pair_joint)


@pytest.fixture
def skew_cond():
    """K=3 skewed conditional rows used by the constructive example."""
    return ConditionalMatrix.from_rows(
        [
            [F(1, 10), F(3, 10), F(6, 10)],
            [F(5, 10), F(4, 10), F(1, 10)],
            [F(2, 10), F(5, 10), F(3, 10)],
        ]
    )


@pytest.fixture
def skew_joint(skew_cond):
    """Uniform prior over the private request with the skewed conditionals."""
    K = skew_cond.K
    return validate_joint(
        [[skew_cond.rows[s][x] / K for x in range(K)] for s in range(K)]
    )


@pytest.fixture
def empty_bases(monkeypatch):
    """Empty covering-LP basis caches for one test, so that what it solves
    does not depend on the tests before it; the module's own caches come
    back afterwards. Returns the new (K, N) -> BasisCache dict."""
    bases = {}
    monkeypatch.setattr(obfuscation, "_BASES", bases)
    return bases


@pytest.fixture
def config22():
    return SystemConfig(N=2, K=2, L=4, seed=1234)


@pytest.fixture
def store22(config22):
    return MessageStore.random(config22.K, config22.L, fork_rng(config22.seed, "store"))


@pytest.fixture
def flipping_transport():
    """Factory for an in-process exchange that flips the first answer bit of
    server 0 on call number ``flip_call``; returns it with its call log."""

    def make(store, flip_call):
        local = local_transport(store)
        calls = []

        def exchange(queries):
            answers = local(queries)
            if len(calls) == flip_call:
                answers[0] = (answers[0][0] ^ 1,) + answers[0][1:]
            calls.append(len(queries))
            return answers

        return exchange, calls

    return make


@pytest.fixture
def recording_transport():
    """Factory for a transport that passes each exchange on to ``inner`` and
    records its ``(queries, answers)``, in order; returns it with the log."""

    def make(inner):
        exchanges = []

        def exchange(queries):
            answers = inner(queries)
            exchanges.append((list(queries), list(answers)))
            return answers

        return exchange, exchanges

    return make
