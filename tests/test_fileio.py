import json

import pytest

from braceflow import fileio
from braceflow.corpus import corpus, corpus_path, f4
from braceflow.errors import AlgebraFileError, ValidationFailure
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
