"""Session fixtures: one group context per desk-scale parameter set."""

from __future__ import annotations

import pytest

from spreadforge import build_group, spread_components, validate_params
from spreadforge.construction import spread_union

# The four desk-scale parameter sets used throughout the suite.
PARAM_SETS = [(2, 1, 1, 2), (2, 1, 1, 3), (2, 1, 2, 2), (2, 2, 1, 2)]


def count_calls(monkeypatch, module, name):
    """Wrap module.<name> for the test; return the list of its call arguments."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="session")
def contexts():
    """pekt tuple -> built GroupContext, shared by the whole session."""
    return {pekt: build_group(validate_params(*pekt)) for pekt in PARAM_SETS}


@pytest.fixture(scope="session")
def ctx_2112(contexts):
    return contexts[(2, 1, 1, 2)]


@pytest.fixture(scope="session")
def ctx_2113(contexts):
    return contexts[(2, 1, 1, 3)]


@pytest.fixture(scope="session")
def ctx_2122(contexts):
    return contexts[(2, 1, 2, 2)]


@pytest.fixture(scope="session")
def ctx_2212(contexts):
    return contexts[(2, 2, 1, 2)]


@pytest.fixture(scope="session")
def spreads(contexts):
    """Default-choice spread at every parameter set (i=1, j=t+1)."""
    return {
        pekt: spread_union(ctx.params, spread_components(ctx, 1, ctx.params.t + 1))
        for pekt, ctx in contexts.items()
    }
