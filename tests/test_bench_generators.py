"""The benchmark's input generators (bench/generators.py) state the
invariants its expected outputs are spelled from: dims and classes of
v_n and T_n, chain dims of the radical rings upper(3..5).  This test
runs their self-check, which validates every generated structure with
the library."""


def test_generators_self_check(bench_generators):
    checked, problems = bench_generators.self_check()
    assert problems == []
    assert checked > 0
