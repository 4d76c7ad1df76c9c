"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio
import inspect
import random
from typing import List

import pytest

try:  # pragma: no cover - environment probe
    import pytest_asyncio  # noqa: F401

    _HAVE_PYTEST_ASYNCIO = True
except ImportError:
    _HAVE_PYTEST_ASYNCIO = False


if not _HAVE_PYTEST_ASYNCIO:
    # Minimal stand-in for pytest-asyncio (a dev extra some environments
    # lack): run ``async def`` test functions through ``asyncio.run`` so
    # tests/test_net.py executes identically either way.  When the real
    # plugin is installed it takes over and this hook never fires.
    @pytest.hookimpl(tryfirst=True)
    def pytest_pyfunc_call(pyfuncitem):
        fn = pyfuncitem.obj
        if not inspect.iscoroutinefunction(fn):
            return None
        argnames = pyfuncitem._fixtureinfo.argnames
        kwargs = {name: pyfuncitem.funcargs[name] for name in argnames}
        asyncio.run(fn(**kwargs))
        return True

from repro.tree import (
    Tree,
    binary_tree,
    caterpillar_tree,
    path_tree,
    random_tree,
    star_tree,
    two_node_tree,
)
from repro.workloads import Request, combine, write


@pytest.fixture
def pair() -> Tree:
    """The 2-node tree (Theorem 3's setting)."""
    return two_node_tree()


@pytest.fixture
def path5() -> Tree:
    return path_tree(5)


@pytest.fixture
def star6() -> Tree:
    return star_tree(6)


@pytest.fixture
def bintree() -> Tree:
    """Complete binary tree of depth 3 (15 nodes)."""
    return binary_tree(3)


@pytest.fixture(params=["pair", "path", "star", "binary", "caterpillar", "random"])
def any_tree(request) -> Tree:
    """A representative small topology of each family."""
    return {
        "pair": two_node_tree(),
        "path": path_tree(6),
        "star": star_tree(6),
        "binary": binary_tree(2),
        "caterpillar": caterpillar_tree(3, 2),
        "random": random_tree(9, 42),
    }[request.param]


def make_mixed_sequence(n_nodes: int, length: int, seed: int, read_ratio: float = 0.5) -> List[Request]:
    """A small deterministic combine/write mix for direct use in tests."""
    rng = random.Random(seed)
    out: List[Request] = []
    for i in range(length):
        node = rng.randrange(n_nodes)
        if rng.random() < read_ratio:
            out.append(combine(node))
        else:
            out.append(write(node, float(rng.randrange(100))))
    return out
