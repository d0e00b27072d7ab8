import hashlib
import itertools
import json
import math
import random
import sys

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hypothesis import assume, given, settings, strategies as st

from braceflow import brace, fileio, flows, sampling
from braceflow.bch import verify_flows_bch
from braceflow.brace import GradedBrace, _checked_stages, table_difference, validation_stages
from braceflow.corpus import corpus, corpus_dir, f4, n2, zero_algebra
from braceflow.errors import ConvergenceFailure, PreconditionViolated, ValidationFailure
from braceflow.flows import _omega_fixed_point, circ, exp_L, omega, star, to_brace, w_map
from braceflow.limits import to_prelie
from braceflow.linalg import Vec, span
from braceflow.prelie import PreLieAlgebra, chain_report
from braceflow.sampling import random_vec
from braceflow.scalars import GF, Q


def test_exp_l_zero_algebra():
    alg = zero_algebra(Q, 3)
    b = Vec(Q, (1, 2, 3))
    assert exp_L(alg, Vec(Q, (4, 5, 6)), b) == b


def test_exp_l_n2():
    # L_a(b) = (0, x u), L_a^2(b) = 0, so exp_L(a, b) = (u, v + x u)
    alg = n2()
    a, b = Vec(Q, (3, 5)), Vec(Q, (2, 7))
    assert exp_L(alg, a, b) == Vec(Q, (2, 7 + 6))


def test_exp_l_f4_basis():
    alg = f4()
    e1 = alg.basis_vector(0)
    assert exp_L(alg, e1, e1) == Vec(Q, (1, 1, 0, Fraction(1, 2)))


def test_w_map_closed_forms():
    alg = n2()
    a = Vec(Q, (3, 5))
    assert w_map(alg, a) == Vec(Q, (3, 5 + Fraction(9, 2)))
    algf = f4()
    for x in (1, 2, Fraction(-2, 3)):
        a = algf.basis_vector(0) * Q.of(x)
        expected = Vec(Q, (x, Fraction(x ** 2, 2), 0, Fraction(x ** 3, 6)))
        assert w_map(algf, a) == expected


def test_omega_closed_forms():
    alg = n2()
    a = Vec(Q, (3, 5))
    assert omega(alg, a) == Vec(Q, (3, 5 - Fraction(9, 2)))
    algf = f4()
    for x in (1, Fraction(5, 7)):
        a = algf.basis_vector(0) * Q.of(x)
        expected = Vec(Q, (x, -Fraction(x ** 2, 2),
                           Fraction(x ** 3, 4), Fraction(x ** 3, 12)))
        assert omega(algf, a) == expected


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)])
@pytest.mark.parametrize("name", ["zero2", "n2", "h3", "f4", "v5"])
def test_w_omega_mutually_inverse(field, name):
    alg = corpus(field)[name]
    rng = random.Random(42)
    for _ in range(50):
        a = random_vec(field, alg.dim, rng)
        assert omega(alg, w_map(alg, a)) == a
        assert w_map(alg, omega(alg, a)) == a


def test_omega_check_uses_w_at_the_last_iterate():
    # with one iteration allowed, the iterate on n2 is already Omega(a) but
    # the loop cannot see it stabilize; the final check must evaluate W there
    one_step = SimpleNamespace(nilpotency_class=0)
    alg = n2()
    a = Vec(Q, (3, 5))
    assert _omega_fixed_point(one_step, lambda x: w_map(alg, x), a) == omega(alg, a)
    alg = f4()
    with pytest.raises(ConvergenceFailure):
        _omega_fixed_point(one_step, lambda x: w_map(alg, x), alg.basis_vector(0))


def test_w_omega_zero_algebra():
    alg = zero_algebra(Q, 3)
    a = Vec(Q, (1, -2, 3))
    assert w_map(alg, a) == a
    assert omega(alg, a) == a


_ONE_IDEMPOTENT = PreLieAlgebra(Q, 1, {(0, 0): {0: 1}}, validate=False)
_X = Vec(Q, (1,))


@pytest.mark.parametrize("call", [
    lambda: _ONE_IDEMPOTENT.nilpotency_class,
    lambda: verify_flows_bch(_ONE_IDEMPOTENT),
    lambda: to_brace(_ONE_IDEMPOTENT),
    lambda: w_map(_ONE_IDEMPOTENT, _X),
    lambda: exp_L(_ONE_IDEMPOTENT, _X, _X),
    lambda: omega(_ONE_IDEMPOTENT, _X),
    lambda: circ(_ONE_IDEMPOTENT, _X, _X),
    lambda: star(_ONE_IDEMPOTENT, _X, _X),
], ids=["nilpotency_class", "verify_flows_bch", "to_brace", "w_map", "exp_L",
        "omega", "circ", "star"])
def test_not_nilpotent_is_a_precondition_violation(call):
    # an unvalidated algebra with e1*e1 = e1 has no class; every series
    # that needs one says so instead of failing on a missing bound
    with pytest.raises(PreconditionViolated, match="not nilpotent"):
        call()


def test_circ_zero_algebra_is_addition():
    alg = zero_algebra(Q, 2)
    a, b = Vec(Q, (1, 2)), Vec(Q, (3, 4))
    assert circ(alg, a, b) == a + b


def test_circ_n2_familiar_multiplication():
    alg = n2()
    a, b = Vec(Q, (3, 5)), Vec(Q, (2, 7))
    assert circ(alg, a, b) == Vec(Q, (5, 5 + 7 + 6))


@pytest.mark.parametrize("name", ["zero1", "zero2", "zero3", "n2", "h3", "f4"])
def test_circ_low_class_closed_form(name):
    # for class <= 4:  a∘b = a + b + a.b - (1/2)(a.a).b + (1/2)a.(a.b)
    alg = corpus(Q)[name]
    assert alg.nilpotency_class <= 4
    rng = random.Random(5)
    vecs = [alg.basis_vector(i) for i in range(alg.dim)]
    vecs += [random_vec(Q, alg.dim, rng) for _ in range(20)]
    half = Fraction(1, 2)
    for a in vecs:
        for b in vecs:
            aa = alg.multiply(a, a)
            expected = (a + b + alg.multiply(a, b)
                        - alg.multiply(aa, b) * half
                        + alg.multiply(a, alg.multiply(a, b)) * half)
            assert circ(alg, a, b) == expected


@pytest.mark.parametrize("name", ["n2", "f4", "v5"])
def test_circ_group_and_brace_laws(name):
    alg = corpus(Q)[name]
    rng = random.Random(17)
    zero = Vec.zero(Q, alg.dim)
    for _ in range(25):
        a, b, c = (random_vec(Q, alg.dim, rng) for _ in range(3))
        assert circ(alg, circ(alg, a, b), c) == circ(alg, a, circ(alg, b, c))
        assert circ(alg, a, b + c) + a == circ(alg, a, b) + circ(alg, a, c)
    a = random_vec(Q, alg.dim, rng)
    assert circ(alg, zero, a) == a
    assert circ(alg, a, zero) == a


def test_to_brace_zero_algebra_trivial():
    B = to_brace(zero_algebra(Q, 3))
    assert not B.lambdas


def test_to_brace_n2_is_bilinear():
    B = to_brace(n2())
    assert set(B.lambdas) == {1}
    alg = n2()
    for i in range(2):
        for j in range(2):
            assert B.lambda_map(1).value((i,), j) == \
                alg.multiply(alg.basis_vector(i), alg.basis_vector(j))


def test_to_brace_f4_degree_two_part():
    # L_2(a, a; b) = (1/2) a.(a.b) - (1/2)(a.a).b; on (e1, e1; e1) that
    # is (1/2)e4 - (1/2)e3
    B = to_brace(f4())
    assert B.lambda_map(2).value((0, 0), 0) == \
        Vec(Q, (0, 0, -Fraction(1, 2), Fraction(1, 2)))


def _exact_degree_products(alg, k):
    """Independent oracle: span of all products of exactly k basis
    elements, enumerated over every bracketing."""
    def products(leaves):
        if len(leaves) == 1:
            yield leaves[0]
            return
        for cut in range(1, len(leaves)):
            for lv in products(leaves[:cut]):
                for rv in products(leaves[cut:]):
                    yield alg.multiply(lv, rv)

    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    gens = []
    for leaves in itertools.product(basis, repeat=k):
        gens.extend(products(list(leaves)))
    return span(gens, field=alg.field, dim=alg.dim)


@pytest.mark.parametrize("name", ["zero2", "n2", "h3", "f4", "v5"])
def test_graded_star_shape(name, braces_q):
    # degree-one map equals the pre-Lie product; higher maps vanish as
    # soon as all pre-Lie products of matching length vanish
    alg = corpus(Q)[name]
    B = braces_q[name]
    lam1 = B.lambda_map(1)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert lam1.value((i,), j) == \
                alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
    for k in range(2, alg.nilpotency_class):
        if _exact_degree_products(alg, k + 1).is_zero():
            assert k not in B.lambdas


def _trees(generators, n, field):
    """T_n: the free pre-Lie algebra on one generator cut off at rooted
    trees of at most n vertices (bench/generators.py); class n + 1.  Its
    products have values with several nonzero coordinates."""
    return _generated(generators, generators.trees(n), field)


def _generated(generators, structure, field, sigma=None, scales=None):
    """The pre-Lie algebra of a bench/generators.py ``Structure``, in the
    basis f_{sigma(i)} = scales[i] e_i when sigma is given."""
    entries = structure.entries
    if sigma is not None:
        entries = generators.relabel(entries, sigma, scales, field.characteristic)
    table = {}
    for (_, (i,), j, k), val in entries.items():
        table.setdefault((i, j), {})[k] = val
    return PreLieAlgebra(field, structure.dim, table)


def _smallest_prime_above(n):
    p = n + 1
    while any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


@pytest.mark.parametrize("field", [GF(7), GF(11), Q])
def test_to_brace_prime_field(field, bench_generators):
    # the flows star through omega and exp_L is the reference for the
    # extracted graded star: every basis pair plus seeded random pairs
    p = field.characteristic
    algs = list(corpus(field).values())
    algs += [_v(n, field) for n in range(3, 7) if not p or n + 1 < p]
    algs += [_trees(bench_generators, n, field) for n in (3, 4) if not p or n + 1 < p]
    rng = random.Random(23)
    for alg in algs:
        B = to_brace(alg)
        basis = [alg.basis_vector(i) for i in range(alg.dim)]
        for a in basis:
            for b in basis:
                assert B.star(a, b) == star(alg, a, b), (alg.dim, a, b)
        for _ in range(20):
            a, b = random_vec(field, alg.dim, rng), random_vec(field, alg.dim, rng)
            assert B.star(a, b) == star(alg, a, b)
            assert a + b + B.star(a, b) == circ(alg, a, b)


# SHA-256 of fileio.dumps(to_brace(alg)) keyed by (algebra, characteristic),
# recorded from an independent extraction: exact interpolation of
# t -> star(t x, e_j) at sampled nodes, then polarization over subset sums.
EXTRACTED_SHA256 = {
    ("zero1", 0): "a6ecd1972339349a5c6bd0194909a12def19620e8135e9b17181b2f2c8e14859",
    ("zero1", 7): "2591fc7526d70694d6582f0ccd16c1b8956957040bb2c6b4f83333e07d86a128",
    ("zero1", 11): "965ceba358fd74359f29c40f3b702de1990e4d71ae6f5eb6bcd662fd5174c23d",
    ("zero2", 0): "63cf5aad09b5781fc562dc818d8c2ae24b753255c7eaf8acf027d346b3b6bff5",
    ("zero2", 7): "588be230609106e0d844b4e8ec77b16c4429a58302e3540a541d12fd6b145c76",
    ("zero2", 11): "505fc0e354a55f457da1bdd61effea55ff36bf94095223065262fb29c61f545d",
    ("zero3", 0): "9b4a29c70ed0e73ab15245950677dba58de7476ad6f342b5b84f9ac2090444c3",
    ("zero3", 7): "a1a4aba22b08189a96940ca2e4c21b7a15dc7794aa525de38f0aa6e2f7f1f203",
    ("zero3", 11): "f60edce4f140a48982d31f5afff7ff6426ef60b63374ac5233443e5aa161b96c",
    ("n2", 0): "5aaa3ac618f3d964b3f9810e2ab498a8dfe35ba5e1699907eab7714944ff28e2",
    ("n2", 7): "f4746db2389b6a54acac498c2c81b869a2f43f0c0f530fd418c741f28b166921",
    ("n2", 11): "22cefe355314b358d9bd4a13fad196a53f7cab7086311da17e1faf2ed60259e3",
    ("h3", 0): "4bbd53e943097532414d219bdb0949fdde6cfca3e425c5e00b9df900de78804c",
    ("h3", 7): "229d1f34cd7fd9cf57fd7b84937b3642a364a51d025409fcfb37263b046cc79e",
    ("h3", 11): "f43e569bb4604aa1355e195f0628feb5eacfadfa601fc31fcc5b09b73bae805e",
    ("f4", 0): "44df5a315dd7004c50b05bf2a8e26a169f514e1d021fc3e134f35e9a3374dc34",
    ("f4", 7): "f59e7603d2a8ff45126d717077db63fc10b438c3f6699d65b8c7326c874f9eda",
    ("f4", 11): "fcfb07019005c820479de1fd8afc3c5876879aeb1fdac6eceec75a21fbc1398e",
    ("v5", 0): "f6edd64240064ad45a5726286e73e70b5f019a5f3a93dbb3330cb88ccd619b32",
    ("v5", 7): "a7345504183a4328164e6a85b0f5f3378b808658e67fea6cec3a3179d82ad649",
    ("v5", 11): "00048e70a5d42860166651299ce15ec19c2487237f7f6e897b67b26fb9780f16",
    ("v_3", 5): "9839e7dfddfc040febdfa2fd52dcd8e197a7b41b41dc3be46794a45453a6761d",
    ("v_5", 0): "8fb0d8e84c62375080fc3d9d0f19322527031474d406af2fae56bb8f98337e0f",
    ("v_5", 7): "9a9e1442c1405a7559bb8f794a74d86bdf0b141041c367fac333767e1fbcac2b",
    # recorded while to_brace still compared its result with the flows
    # star (omega, exp_L) on every basis pair and 20 random pairs
    ("T_3", 0): "f3155f95c3c0aada92646fb554b24c78afb60deeea4073889ba19aecdad71f6f",
    ("T_3", 7): "22099f02b9bab44ab7e3ffa733069ff7fc554a037572a9cbc889362279bf24eb",
    ("T_4", 0): "51da8cc588d217fec813037ea8af750916958967f90b81b91074417122798955",
    ("T_4", 7): "03d7f994fc1e67dce8d6c80d5f9e87c88d0f7ebef3ae425abcf9742d6457de40",
}

CORPUS_FILES = sorted(p.name[:-len(".json")] for p in corpus_dir().iterdir()
                      if p.name.endswith(".json"))


def _extracted_sha256(alg):
    return hashlib.sha256(fileio.dumps(to_brace(alg)).encode()).hexdigest()


def _v(n, field):
    """v_n: e_i * e_j = j e_{i+j} for i + j <= n (basis e_1..e_n); class n + 1."""
    return PreLieAlgebra(field, n, {
        (i - 1, j - 1): {i + j - 1: j}
        for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n})


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_to_brace_bytes_pinned_on_corpus_files(name):
    doc = json.loads((corpus_dir() / f"{name}.json").read_text())
    own = fileio.loads(json.dumps(doc))
    chars = {own.field.characteristic}
    chars |= {p for p in (7, 11) if p > own.nilpotency_class}
    for p in sorted(chars):
        doc["field"] = {"p": p} if p else "Q"
        alg = fileio.loads(json.dumps(doc))
        assert _extracted_sha256(alg) == EXTRACTED_SHA256[(name.split("_")[0], p)]


@pytest.mark.parametrize("n", [3, 4])
def test_to_brace_bytes_pinned_on_trees(n, bench_generators):
    for p in (0, 7):
        alg = _trees(bench_generators, n, GF(p) if p else Q)
        assert _extracted_sha256(alg) == EXTRACTED_SHA256[(f"T_{n}", p)]


def test_to_brace_bytes_pinned_at_characteristic_class_plus_one():
    alg = _v(3, GF(5))
    assert alg.nilpotency_class == 4
    assert _extracted_sha256(alg) == EXTRACTED_SHA256[("v_3", 5)]


class _DenseGeneric:
    """The generic element as a map from monomials to nonzero Vecs."""

    def __init__(self, terms):
        self.terms = {m: v for m, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        terms = dict(self.terms)
        for m, v in other.terms.items():
            terms[m] = terms[m] + v if m in terms else v
        return _DenseGeneric(terms)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, scalar):
        return _DenseGeneric({m: v * scalar for m, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.terms == other.terms


def _dense_extraction(alg):
    """{k: {(monomial, j): Vec}}: the graded maps of to_brace, with every
    coefficient a dense Vec and every product an ``alg.multiply`` call."""
    s, field = alg.nilpotency_class, alg.field

    def mul(x, y):
        terms = {}
        for mx, vx in x.terms.items():
            for my, vy in y.terms.items():
                if len(mx) + len(my) < s:
                    m = tuple(sorted(mx + my))
                    v = alg.multiply(vx, vy)
                    terms[m] = terms[m] + v if m in terms else v
        return _DenseGeneric(terms)

    generic = _DenseGeneric({(i,): alg.basis_vector(i) for i in range(alg.dim)})
    om = flows._omega_fixed_point(alg, lambda x: flows._series(alg, mul, x, x, 1),
                                  generic)
    out = {}
    for j in range(alg.dim):
        ej = _DenseGeneric({(): alg.basis_vector(j)})
        for m, v in (flows._series(alg, mul, om, ej, 0) - ej).terms.items():
            multinomial = math.factorial(len(m))
            for i in set(m):
                multinomial //= math.factorial(m.count(i))
            out.setdefault(len(m), {})[(m, j)] = v * field.inv_int(multinomial)
    return out


def _assert_tables_match_dense_extraction(alg):
    B = to_brace(alg)
    got = {k: {key: lam.value(*key) for key in lam.table}
           for k, lam in B.lambdas.items()}
    assert got == _dense_extraction(alg), (alg.dim, alg.nilpotency_class)


def _dense_reference_algebras(generators, field):
    """The corpus, v_3..v_6, T_4, T_5 and upper(4) over ``field``, where
    its characteristic exceeds the class."""
    p = field.characteristic
    algs = list(corpus(field).values())
    algs += [_v(n, field) for n in range(3, 7) if not p or n + 1 < p]
    algs += [_generated(generators, s, field)
             for s in (generators.trees(4), generators.trees(5), generators.upper(4))
             if not p or s.nil_class < p]
    return algs


@pytest.mark.parametrize("field", [Q, GF(7), GF(11)], ids=str)
def test_to_brace_tables_match_dense_extraction(field, bench_generators):
    for alg in _dense_reference_algebras(bench_generators, field):
        _assert_tables_match_dense_extraction(alg)


def test_to_brace_matches_dense_extraction_with_rational_scales(bench_generators):
    # a relabelling of T_4 whose scales have denominators: the table's
    # common denominator D enters every degree's denominator D * s!, and
    # each 1/k! of the series must still divide exactly
    g = bench_generators
    rng = random.Random(19)
    for _ in range(2):
        sigma = list(range(8))
        rng.shuffle(sigma)
        scales = [Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((2, 3, 4, 7)))
                  for _ in range(8)]
        alg = _generated(g, g.trees(4), Q, sigma, scales)
        assert max(c.denominator for pairs in alg.product.table.values()
                   for _, c in pairs) > 1
        _assert_tables_match_dense_extraction(alg)


@pytest.mark.parametrize("name", ["v3", "v4", "v5", "v6", "T4", "T5", "U4"])
def test_to_brace_matches_dense_extraction_at_smallest_prime(name, bench_generators):
    # over GF(p) with p just above the class, every 1/k! of the series
    # is an inverse residue with k < p
    g = bench_generators
    family, n = name[0], int(name[1:])
    s = {"v": g.v, "T": g.trees, "U": g.upper}[family](n)
    field = GF(_smallest_prime_above(s.nil_class))
    sigma, scales = g.relabelling(s.dim, 5)
    for alg in (_generated(g, s, field), _generated(g, s, field, sigma, scales)):
        assert alg.nilpotency_class == s.nil_class
        _assert_tables_match_dense_extraction(alg)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(data=st.data())
def test_to_brace_matches_dense_extraction_on_relabellings(data, bench_generators):
    # seeded relabellings of v_n, T_n and upper(m) from the benchmark's
    # generators, over Q, over GF(p) just above the class and over GF(11)
    g = bench_generators
    s = data.draw(st.sampled_from(
        [g.v(n) for n in (2, 3, 4, 5)] + [g.trees(n) for n in (2, 3, 4)]
        + [g.upper(m) for m in (3, 4, 5)]), label="structure")
    p = data.draw(st.sampled_from((0, _smallest_prime_above(s.nil_class), 11)), label="p")
    if p:
        assume(p > s.nil_class)
    seed = data.draw(st.integers(0, 10 ** 6), label="relabelling seed")
    sigma, scales = g.relabelling(s.dim, seed)
    _assert_tables_match_dense_extraction(_generated(g, s, GF(p) if p else Q, sigma, scales))


def _reference_structures(generators):
    """The corpus, v_3..v_6, T_3..T_5 and upper(3..5) as bench/generators.py
    ``Structure``s (a corpus algebra as its name, dim, class and int
    entries)."""
    out = [SimpleNamespace(name=name, dim=alg.dim, nil_class=alg.nilpotency_class,
                           entries={(1, (i,), j, o): int(c)
                                    for ((i,), j), pairs in alg.product.table.items()
                                    for o, c in pairs})
           for name, alg in corpus(Q).items()]
    out += [generators.v(n) for n in range(3, 7)]
    out += [generators.trees(n) for n in range(3, 6)]
    return out + [generators.upper(m) for m in range(3, 6)]


def _assert_admitted_and_checked(B, where):
    """Validation admits an unvalidated copy of B by reconstruction, and
    the law stages pass on another copy with the same law lines; so does
    ``table_difference`` from to_brace(L_1), the reference of the int
    comparison that admitted it; the chain lines are those of the
    ChainReport read off L_1's table."""
    admitted, checked = (GradedBrace(B.field, B.dim, B.lambdas, class_bound=B.class_bound,
                                     basis_names=B.basis_names, validate=False)
                         for _ in range(2))
    lines = list(validation_stages(admitted))
    assert admitted.prelie is not None, where
    assert table_difference(B, to_brace(admitted.prelie)) is None, where
    assert list(_checked_stages(checked)) + list(admitted.chains.lines()) == lines, where
    assert admitted.chains == chain_report(admitted.prelie), where
    assert admitted.class_bound == admitted.chains.strong_index, where


def _field_of(name, s):
    p = {"Q": 0, "smallest prime": _smallest_prime_above(s.nil_class), "GF(11)": 11}[name]
    return GF(p) if p else Q


@pytest.mark.parametrize("field_of", ["Q", "smallest prime", "GF(11)"])
def test_to_brace_output_passes_full_validation(field_of, bench_generators):
    # to_brace admits its brace by the correspondence theorem and checks
    # nothing; the checked stages are the reference, run on an
    # unvalidated copy of every brace it returns, over Q, GF(p) with p
    # the smallest prime above the class and GF(11), plain and under a
    # seeded relabelling of the algebra
    g = bench_generators
    for s in _reference_structures(g):
        field = _field_of(field_of, s)
        for sigma, scales in ((None, None), g.relabelling(s.dim, 5)):
            alg = _generated(g, s, field, sigma, scales)
            B = to_brace(alg)
            assert B.chains is None and B.class_bound == alg.nilpotency_class
            _assert_admitted_and_checked(B, (s.name, field))


@pytest.mark.parametrize("field_of", ["Q", "smallest prime", "GF(11)"])
def test_admitted_braces_pass_the_checked_stages(field_of, bench_generators):
    # the reconstruction admits a brace with no brace check and no draw;
    # the checked stages are the reference on every brace it admits: the
    # corpus braces and the flows braces of v_3..v_6, T_3..T_5 and
    # upper(3..5), given as brace tables, plain and under a seeded
    # relabelling of the brace's own basis, declaring their class or no
    # bound
    g = bench_generators
    for s in _reference_structures(g):
        field = _field_of(field_of, s)
        p = field.characteristic
        flows_brace = to_brace(_generated(g, s, field))
        entries = {(k, tup, j, o): c.r if p else c for k, lam in flows_brace.lambdas.items()
                   for (tup, j), pairs in lam.table.items() for o, c in pairs}
        for seed in (None, 7):
            table = entries if seed is None else g.relabel(
                entries, *g.relabelling(s.dim, seed), p)
            lambdas = {}
            for (k, tup, j, o), c in table.items():
                lambdas.setdefault(k, {}).setdefault((tup, j), {})[o] = c
            for bound in (s.nil_class, None):
                B = GradedBrace(field, s.dim, lambdas, class_bound=bound, validate=False)
                _assert_admitted_and_checked(B, (s.name, field, seed, bound))


def _called(watched, thunk):
    """(name, first argument) of each call of the functions in ``watched``
    ({name: function}) while ``thunk`` runs, under any name they are
    bound to."""
    codes = {func.__code__: name for name, func in watched.items()}
    called = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            called.append((codes[frame.f_code],
                           frame.f_locals[frame.f_code.co_varnames[0]]))

    sys.setprofile(hook)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return called


@pytest.mark.parametrize("trials", [0, 3])
def test_extraction_makes_no_multiply_call(trials):
    # the generic product reads the table, the star is evaluated once and
    # the brace is admitted by the theorem: no PreLieAlgebra.multiply, no
    # flows star on vectors, no brace check and no random draw
    watched = {"multiply": PreLieAlgebra.multiply, "omega": flows.omega,
               "w_map": flows.w_map, "exp_L": flows.exp_L,
               "check_left_brace": brace.check_left_brace,
               "check_group": brace.check_group,
               "radical_chains": brace.radical_chains, "rng_from": sampling.rng_from}
    alg = _v(5, Q)
    out = []
    assert _called(watched, lambda: out.append(to_brace(alg))) == []
    B = out[0]
    # validation admits it by reconstruction: no draw and no brace check,
    # and the chains are read off L_1's table
    assert _called(watched, lambda: list(validation_stages(B))) == []
    assert B.chains == chain_report(alg)
    # the watch sees the law checks, on the brace itself, when the
    # reconstruction rejects it (a declared class bound below the class),
    # and still no chain, multiply, flows star or draw
    low = GradedBrace(Q, B.dim, B.lambdas, class_bound=B.class_bound - 1, validate=False)
    called = _called(watched, lambda: pytest.raises(
        ValidationFailure, list, validation_stages(low)))
    assert {name for name, _ in called} == {"check_left_brace", "check_group"}
    assert all(arg is low for _, arg in called)
    # the brace built with no multiply call is the flows brace of alg:
    # its star is the multiply-built flows star at `trials` seeded pairs
    rng = sampling.rng_from(5)
    for _ in range(trials):
        a, b = random_vec(Q, alg.dim, rng), random_vec(Q, alg.dim, rng)
        assert B.star(a, b) == star(alg, a, b), (a, b)


@pytest.mark.parametrize("field", [Q, GF(7)])
def test_v5_dim5_round_trip(field):
    alg = _v(5, field)
    B = to_brace(alg)
    assert hashlib.sha256(fileio.dumps(B).encode()).hexdigest() == \
        EXTRACTED_SHA256[("v_5", field.characteristic)]
    assert to_prelie(B).structure_equal(alg)
