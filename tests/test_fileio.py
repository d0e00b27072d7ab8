import json

from fractions import Fraction

import pytest

from braceflow import fileio
from braceflow.cli import main
from braceflow.corpus import corpus, corpus_path, f4
from braceflow.errors import AlgebraFileError, CharacteristicTooSmall, ValidationFailure
from braceflow.scalars import GF, Q


def test_dumps_deterministic():
    alg = f4()
    assert fileio.dumps(alg) == fileio.dumps(f4())


def test_prelie_round_trip(tmp_path):
    alg = corpus(Q)["v5"]
    path = tmp_path / "v5.json"
    fileio.write_file(alg, path)
    back = fileio.read_file(path)
    assert back.structure_equal(alg)
    assert back.basis_names == alg.basis_names


def test_brace_round_trip(tmp_path, braces_q):
    B = braces_q["f4"]
    path = tmp_path / "f4_brace.json"
    fileio.write_file(B, path)
    back = fileio.read_file(path)
    assert back == B
    assert back.class_bound == B.class_bound


@pytest.mark.parametrize("name", ["zero1", "zero2", "zero3", "n2", "h3", "f4", "v5"])
def test_shipped_corpus_matches_programmatic(name):
    shipped = corpus_path(name).read_text()
    assert shipped == fileio.dumps(corpus(Q)[name])


@pytest.mark.parametrize("name,field", [("n2_p7", GF(7)), ("f4_p11", GF(11))])
def test_shipped_prime_twins(name, field):
    alg = fileio.loads(corpus_path(name).read_text())
    assert alg.field == field


def _f4_doc():
    return json.loads(fileio.dumps(f4()))


def _fails(doc, message_part):
    with pytest.raises(AlgebraFileError) as err:
        fileio.loads(json.dumps(doc))
    assert message_part in str(err.value)


def test_structural_rejections():
    _fails({**_f4_doc(), "extra": 1}, "unknown fields")
    _fails({**_f4_doc(), "field": "R"}, "bad field spec")
    _fails({**_f4_doc(), "field": {"p": 6}}, "prime")
    _fails({**_f4_doc(), "field": {"p": 0}}, "prime")  # GF(0) is not Q
    _fails({**_f4_doc(), "dim": 0}, "dim")
    doc = _f4_doc()
    doc["entries"][0] = [0, 0, 9, "1"]
    _fails(doc, "out of range")
    doc = _f4_doc()
    doc["entries"].append(doc["entries"][0])
    _fails(doc, "duplicate")
    brace = {"format_version": 1, "kind": "brace", "field": "Q", "dim": 2,
             "entries": [[1, [0], 0, 1, "0"], [1, [0], 0, 1, "5"]]}
    _fails(brace, "duplicate")  # by key, even after a zero value
    doc = _f4_doc()
    doc["entries"][0][3] = "1.5"
    _fails(doc, "bad scalar")
    # a JSON boolean (or float) is no integer, although Python's bool is an int
    _fails({**_f4_doc(), "format_version": True}, "format_version")
    _fails({**_f4_doc(), "format_version": 1.0}, "format_version")
    _fails({**_f4_doc(), "dim": True}, "dim must be a positive integer")
    _fails({**_f4_doc(), "field": {"p": True}}, "bad field spec")
    for pos in range(3):
        doc = _f4_doc()
        doc["entries"][0][pos] = False
        _fails(doc, "out of range")
    n2_brace = {"format_version": 1, "kind": "brace", "field": "Q", "dim": 2,
                "class_bound": 3, "entries": [[1, [0], 0, 1, "1"]]}
    fileio.loads(json.dumps(n2_brace))
    _fails({**n2_brace, "class_bound": True}, "class_bound")
    for entry, message in [([True, [0], 0, 1, "1"], "bad degree"),
                           ([1, [False], 0, 1, "1"], "bad left multi-index"),
                           ([1, [0], False, 1, "1"], "out of range"),
                           ([1, [0], 0, True, "1"], "out of range")]:
        _fails({**n2_brace, "entries": [entry]}, message)
    with pytest.raises(AlgebraFileError):
        fileio.loads("not json")
    with pytest.raises(AlgebraFileError):
        fileio.loads(json.dumps({"kind": "mystery"}))


def test_mathematical_validation_on_load():
    doc = _f4_doc()
    doc["entries"].append([2, 0, 1, "1"])  # e3*e1 = e2 breaks the identity
    with pytest.raises(ValidationFailure):
        fileio.loads(json.dumps(doc))
    # but a structural load is still possible for diagnosis
    alg = fileio.loads(json.dumps(doc), validate=False)
    assert alg.dim == 4


def test_file_level_conversion_round_trip(tmp_path, braces_q):
    # to-brace then to-prelie through files reproduces the tensor section
    from braceflow.limits import to_prelie
    B = braces_q["h3"]
    brace_path = tmp_path / "b.json"
    fileio.write_file(B, brace_path)
    loaded = fileio.read_file(brace_path)
    alg = to_prelie(loaded)
    assert fileio.dumps(alg) == fileio.dumps(corpus(Q)["h3"])


def _one_entry_brace(value, field="Q", extra=()):
    """A dim-2 brace file whose L_1 has e_1 e_1 = value e_2, plus the
    brace entries ``extra``."""
    return json.dumps({"format_version": 1, "kind": "brace", "field": field, "dim": 2,
                       "entries": [[1, [0], 0, 1, value], *extra]})


@pytest.mark.parametrize("value,want", [("2/4", "1/2"), ("-3/6", "-1/2")])
def test_unreduced_scalars_load_and_write_in_lowest_terms(value, want, tmp_path, capsys):
    B = fileio.loads(_one_entry_brace(value))
    assert B.lambdas[1].table == {((0,), 0): ((1, Fraction(want)),)}
    assert B.lambdas[1]._ints == {((0,), 0): ((1, int(want.split("/")[0])),)}
    assert B.lambdas[1]._den == 2
    assert json.loads(fileio.dumps(B))["entries"] == [[1, [0], 0, 1, want]]
    path, out = tmp_path / "b.json", tmp_path / "a.json"
    path.write_text(_one_entry_brace(value))
    assert main(["to-prelie", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"] == [[0, 0, 1, want]]
    capsys.readouterr()


def test_zero_scalars_are_dropped(tmp_path, capsys):
    # "0" and "-0" entries leave no coordinate, and a key whose values
    # are all zero leaves no entry; they still count as given for the
    # duplicate check
    zeros = [[1, [0], 0, 0, "0"], [1, [1], 0, 0, "-0"], [1, [1], 0, 1, "0/5"]]
    text = _one_entry_brace("1", extra=zeros)
    B = fileio.loads(text)
    assert B.lambdas[1]._ints == {((0,), 0): ((1, 1),)}
    assert B.lambdas[1].table == {((0,), 0): ((1, Fraction(1)),)}
    assert B == fileio.loads(_one_entry_brace("1"))
    assert json.loads(fileio.dumps(B))["entries"] == [[1, [0], 0, 1, "1"]]
    with pytest.raises(AlgebraFileError, match="duplicate"):
        fileio.loads(_one_entry_brace("1", extra=zeros + [[1, [1], 0, 0, "3"]]))
    only_zero = fileio.loads(_one_entry_brace("-0"), validate=False)
    assert only_zero.lambdas == {}
    path, out = tmp_path / "b.json", tmp_path / "a.json"
    path.write_text(text)
    assert main(["to-prelie", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"] == [[0, 0, 1, "1"]]
    capsys.readouterr()


def test_prime_field_scalars_reduce_to_residues(tmp_path, capsys):
    # 7/14 = 1/2 = 4 in GF(7)
    B = fileio.loads(_one_entry_brace("7/14", {"p": 7}))
    assert B.lambdas[1]._ints == {((0,), 0): ((1, 4),)} and B.lambdas[1]._den == 1
    assert B.lambdas[1].table == {((0,), 0): ((1, GF(7).of(4)),)}
    path, out = tmp_path / "b.json", tmp_path / "a.json"
    path.write_text(_one_entry_brace("7/14", {"p": 7}))
    assert main(["to-prelie", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["entries"] == [[0, 0, 1, "4"]]
    capsys.readouterr()


@pytest.mark.parametrize("value,field,flag", [
    ("1/7", {"p": 7}, None), ("2/14", {"p": 7}, None), ("1/7", "Q", "7")],
    ids=["GF(7) file", "GF(7) file unreduced", "Q file read with --field 7"])
def test_denominator_divisible_by_p_is_a_violation(value, field, flag, tmp_path, capsys):
    text = _one_entry_brace(value, field)
    with pytest.raises(CharacteristicTooSmall, match=r"^denominator 7 not invertible mod 7$"):
        fileio.loads(text, field=None if flag is None else {"p": 7})
    path = tmp_path / "b.json"
    path.write_text(text)
    for command in ("validate", "chains", "to-prelie"):
        argv = [command, str(path)] + (["--out", str(tmp_path / "a.json")]
                                       if command == "to-prelie" else [])
        assert main(argv + (["--field", flag] if flag else [])) == 2
        assert capsys.readouterr().out == "FAIL: denominator 7 not invertible mod 7\n"


@pytest.mark.parametrize("value,message", [
    ("01", "bad scalar '01'"), ("1/0", "bad scalar '1/0'"), ("1.5", "bad scalar '1.5'"),
    ("1/", "bad scalar '1/'"), ("9" * 5000, "bad scalar '999"),
    (1, "values must be strings, got 1"), (None, "values must be strings, got None")])
def test_malformed_scalars_are_file_errors(value, message, tmp_path, capsys):
    for kind, entry in (("brace", [1, [0], 0, 1, value]), ("prelie", [0, 0, 1, value])):
        text = json.dumps({"format_version": 1, "kind": kind, "field": "Q", "dim": 2,
                           "entries": [entry]})
        with pytest.raises(AlgebraFileError) as err:
            fileio.loads(text)
        assert str(err.value).startswith(message)
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
