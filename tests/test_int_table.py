"""A SymmetricMap holds one canonical int table, whatever route its
values take in (a Vec, a dense sequence, an {out: c} mapping, a file or
the flows extraction), and the commands that read a file, admit a brace
and write a table build no scalar on the way."""

import json
import math

from collections import Counter

import pytest

from hypothesis import given, settings, strategies as st

from braceflow import fileio, to_brace
from braceflow.brace import SymmetricMap, first_difference
from braceflow.cli import main
from braceflow.corpus import corpus
from braceflow.prelie import PreLieAlgebra
from braceflow.scalars import GF, Fp, Q, ScalarField


def _file_scalar(field, c, f):
    """c as an unreduced file string: numerator and denominator times f
    over Q; over GF(p) the residue as (r f + p f) / f, f prime to p."""
    p = field.characteristic
    if not p:
        return f"{c.numerator * f}/{c.denominator * f}"
    f = f if f % p else 1
    return f"{c.r * f + p * f}/{f}"


def _routes(lam, f):
    """lam rebuilt from its values by every route, each under its name:
    Vecs, dense sequences, {out: c} mappings, each value given twice (c - 1
    and 1), and a file with unreduced scalars and zero entries (a brace
    file, and for arity 1 a pre-Lie file)."""
    field, d, k = lam.field, lam.dim, lam.arity
    vecs = {key: lam.value(*key) for key in lam.table}
    yield "Vec", SymmetricMap(field, d, k, vecs)
    yield "dense", SymmetricMap(field, d, k, {key: list(v) for key, v in vecs.items()})
    yield "mapping", SymmetricMap(field, d, k, {key: dict(pairs)
                                                for key, pairs in lam.table.items()})
    yield "twice", SymmetricMap(field, d, k, [
        item for key, pairs in lam.table.items()
        for item in ((key, {o: c - 1 for o, c in pairs}), (key, {o: 1 for o, _ in pairs}))])
    spec = "Q" if field == Q else {"p": field.characteristic}
    entries = [[k, list(tup), j, o, _file_scalar(field, c, f)]
               for (tup, j), pairs in lam.table.items() for o, c in pairs]
    zero = ((0,) * k, d - 1)  # a key whose values are all zero, or one zero more
    entries += [[k, list(zero[0]), zero[1], o, "-0" if o % 2 else "0/3"] for o in range(d)
                if o not in dict(lam.table.get(zero, ()))]
    doc = {"format_version": 1, "kind": "brace", "field": spec, "dim": d,
           "entries": entries[::-1]}
    yield "brace file", fileio.loads(json.dumps(doc), validate=False).lambda_map(k)
    if k == 1:
        doc.update(kind="prelie", entries=[[e[1][0], e[2], e[3], e[4]] for e in entries])
        yield "pre-Lie file", fileio.loads(json.dumps(doc), validate=False).product


def _assert_one_table(lam, f=2):
    """Every route gives lam back: equal maps, hashes, table views,
    compiled rows, no first difference; and lam's int table is canonical."""
    p = lam.field.characteristic
    ints = [n for pairs in lam._ints.values() for _, n in pairs]
    if p:
        assert lam._den == 1 and all(0 < n < p for n in ints)
    else:
        assert lam._den == math.lcm(*(c.denominator for pairs in lam.table.values()
                                      for _, c in pairs))
        assert math.gcd(lam._den, *ints) == 1
    for name, other in _routes(lam, f):
        assert other == lam and lam == other, name
        assert hash(other) == hash(lam), name
        assert other.table == lam.table, name
        assert other._den == lam._den, name
        assert sorted(other._rows[0]) == sorted(lam._rows[0]), name
        assert first_difference(lam, other) is None is first_difference(other, lam), name


@st.composite
def _drawn_map(draw):
    """A map of dim 1-3 and arity 1-3 over Q, GF(3) or GF(7) from an
    {out: c} mapping with c an unreduced "n/d" string over Q (so 2/6 and
    4/6 share a factor) and an int over GF(p).  Over GF(3) an arity-3
    key has multinomial 3 or 6, zero mod 3, unless its indices agree."""
    field = draw(st.sampled_from((Q, GF(3), GF(7))))
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    index = st.integers(0, d - 1)
    key = st.tuples(st.lists(index, min_size=k, max_size=k).map(tuple), index)
    scalar = (st.builds("{}/{}".format, st.integers(-6, 6), st.sampled_from((1, 2, 4, 6, 9)))
              if field == Q else st.integers(-10, 10))
    table = draw(st.dictionaries(key, st.dictionaries(index, scalar, min_size=1, max_size=d),
                                 min_size=1, max_size=5))
    return SymmetricMap(field, d, k, table), draw(st.integers(1, 5))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(_drawn_map())
def test_every_route_gives_one_int_table(case):
    _assert_one_table(*case)


def test_common_factors_and_vanishing_multinomials():
    # 2/6 and 4/6 are 1/3 and 2/3: the table's den is 3, not 6
    lam = SymmetricMap(Q, 2, 1, {((0,), 0): {0: "2/6", 1: "4/6"}, ((1,), 0): {1: "3/6"}})
    assert lam._den == 6 and lam._ints == {((0,), 0): ((0, 2), (1, 4)), ((1,), 0): ((1, 3),)}
    lam = SymmetricMap(Q, 2, 1, {((0,), 0): {0: "2/6", 1: "4/6"}})
    assert lam._den == 3 and lam._ints == {((0,), 0): ((0, 1), (1, 2))}
    _assert_one_table(lam, 5)
    # GF(3), degree 3: multinomials 6 and 3 vanish, 1 does not; the rows
    # drop those keys, the table keeps them
    lam = SymmetricMap(GF(3), 3, 3, {((0, 1, 2), 0): (0, 1, 2), ((0, 0, 1), 2): (1, 0, 0),
                                     ((2, 2, 2), 1): (2, 2, 0)})
    assert [row[:2] for row in lam._rows[0]] == [((2, 2, 2), 1)]
    assert len(lam._ints) == 3
    _assert_one_table(lam, 3)


def test_first_difference_compares_values_across_denominators():
    # over den 2 and den 6: equal at the first key (1/2), not at the second
    a = SymmetricMap(Q, 2, 1, {((0,), 0): {0: "1/2"}, ((1,), 0): {0: "1"}})
    b = SymmetricMap(Q, 2, 1, {((0,), 0): {0: "3/6"}, ((1,), 0): {0: "1/3"}})
    assert (a._den, b._den) == (2, 6)
    assert first_difference(a, b) == first_difference(b, a) == ((1,), 0)
    c = SymmetricMap(Q, 2, 1, {((0,), 0): {0: "1/2"}, ((1,), 0): {1: "1"}})
    assert first_difference(a, c) == ((1,), 0)
    assert first_difference(a, SymmetricMap(Q, 2, 1)) == ((0,), 0)


def _generated(g, s, field, seed):
    table = {}
    for (_, (i,), j, k), val in g.relabel(s.entries, *g.relabelling(s.dim, seed),
                                          field.characteristic).items():
        table.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(field, s.dim, table)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(data=st.data())
def test_flows_brace_maps_are_the_routes_tables(data, bench_generators):
    # to_brace builds each map from the kernel's ints; the same values
    # sent through every other route give the same map
    g = bench_generators
    s = data.draw(st.sampled_from([g.v(n) for n in (3, 4, 5, 6)] + [g.trees(n) for n in (3, 4)]
                                  + [g.upper(m) for m in (3, 4)]), label="structure")
    field = data.draw(st.sampled_from((Q, GF(11), GF(13))), label="field")  # above each class
    B = to_brace(_generated(g, s, field, data.draw(st.integers(0, 10 ** 6), label="seed")))
    for lam in B.lambdas.values():
        _assert_one_table(lam, data.draw(st.integers(1, 4), label="file factor"))


def test_flows_brace_degrees_have_their_own_denominators(bench_generators):
    g = bench_generators
    B = to_brace(_generated(g, g.v(6), Q, 3))
    assert [lam._den for _, lam in sorted(B.lambdas.items())] == [1, 1, 3, 3, 15]
    for lam in B.lambdas.values():
        _assert_one_table(lam, 2)


def _scalar_builds(monkeypatch):
    """Counts of ScalarField.of, ScalarField.from_ints and Fp.__init__
    calls from now on."""
    counts = Counter()
    for owner, name in ((ScalarField, "of"), (ScalarField, "from_ints"), (Fp, "__init__")):
        def counted(*args, real=getattr(owner, name), label=f"{owner.__name__}.{name}",
                    **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("field", [Q, GF(7), GF(101)], ids=str)
def test_file_to_file_commands_build_no_scalar(field, tmp_path, capsys, monkeypatch):
    # an admitted brace is read, reconstructed, chained and written on
    # ints from the file to the last line; so is a pre-Lie file through
    # validate, chains, to-brace and its round trip
    alg = corpus(field)["v5"]
    brace_path, prelie_path, out = (tmp_path / name for name in ("b.json", "a.json", "o.json"))
    fileio.write_file(to_brace(alg), brace_path)
    fileio.write_file(alg, prelie_path)
    counts = _scalar_builds(monkeypatch)
    for path, commands in ((brace_path, ("validate", "chains", "roundtrip", "to-prelie")),
                           (prelie_path, ("validate", "chains", "roundtrip", "to-brace"))):
        for command in commands:
            argv = [command, str(path)] + (["--out", str(out)] if command.startswith("to-")
                                           else [])
            assert main(argv) == 0, argv
            assert counts == {}, argv
    assert fileio.read_file(out) == fileio.read_file(brace_path)
    assert counts == {}
    capsys.readouterr()
    # the counter sees scalars where they are built: the table view of L_1
    B = fileio.read_file(brace_path, validate=False)
    assert counts == {}
    B.lambdas[1].table
    assert counts["ScalarField.from_ints"] == len(B.lambdas[1]._ints) > 0
    if field.characteristic:
        assert counts["Fp.__init__"] == sum(map(len, B.lambdas[1]._ints.values()))

