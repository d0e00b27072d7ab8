"""The benchmark's input generators (bench/generators.py) state the
invariants its expected outputs are spelled from: dims and classes of
v_n and T_n, chain dims of the radical rings upper(3..5).  This test
loads the generators by path and runs their self-check, which validates
every generated structure with the library."""

import importlib.util

from pathlib import Path

GENERATORS = Path(__file__).resolve().parents[1] / "bench" / "generators.py"


def test_generators_self_check():
    spec = importlib.util.spec_from_file_location("bench_generators", GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    checked, problems = module.self_check()
    assert problems == []
    assert checked > 0
