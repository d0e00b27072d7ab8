import importlib.util

from pathlib import Path

import pytest

from braceflow import to_brace
from braceflow.corpus import corpus
from braceflow.scalars import GF, Q

FIELDS = {"Q": Q, "p7": GF(7), "p11": GF(11)}
GENERATORS = Path(__file__).resolve().parents[1] / "bench" / "generators.py"


@pytest.fixture(scope="session")
def corpus_q():
    return corpus(Q)


@pytest.fixture(scope="session")
def braces_cache():
    """to_brace is the expensive step; build each brace once per field."""
    cache = {}

    def get(name, field=Q):
        key = (name, field.characteristic)
        if key not in cache:
            cache[key] = to_brace(corpus(field)[name])
        return cache[key]

    return get


@pytest.fixture(scope="session")
def braces_q(braces_cache):
    return {name: braces_cache(name) for name in corpus(Q)}


@pytest.fixture(scope="session")
def bench_generators():
    """The benchmark's input generators (bench/generators.py), loaded once
    by path: the families v_n, T_n and upper(m) it runs on."""
    spec = importlib.util.spec_from_file_location("bench_generators", GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
