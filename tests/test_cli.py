import argparse
import hashlib
import json
import sys

import pytest

from braceflow import brace, fileio, prelie, sampling
from braceflow.cli import PARSER, main
from braceflow.corpus import corpus, corpus_path
from braceflow.scalars import Q


def corpus_file(name):
    return str(corpus_path(name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_prelie_ok(capsys):
    code, out, _ = run(capsys, "validate", corpus_file("f4"))
    assert code == 0
    assert out == ("kind: prelie\nfield: Q\ndim: 4\n"
                   "pre-Lie identity: PASS\nnilpotent: class 4\nVALID\n")


def test_validate_brace_ok(capsys, tmp_path, braces_q):
    path = tmp_path / "n2_brace.json"
    fileio.write_file(braces_q["n2"], path)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out == ("kind: brace\nfield: Q\ndim: 2\n"
                   "left-brace laws: PASS\ngroup laws: PASS\nF-linearity: PASS\n"
                   "left: 2,1,0 nilpotent index 3\n"
                   "right: 2,1,0 nilpotent index 3\n"
                   "strong: 2,1,0 strongly nilpotent index 3\n"
                   "VALID\n")


def test_validate_corrupted_exit_2(capsys, tmp_path):
    doc = json.loads(fileio.dumps(corpus(Q)["f4"]))
    doc["entries"].append([2, 0, 1, "1"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ("kind: prelie\nfield: Q\ndim: 4\n"
                   "FAIL: pre-Lie identity violated at (0, 1, 0) "
                   "residual (0, -1, 0, 0)\n")


def _brace_file(tmp_path, B, **changes):
    """B written to a file, with top-level keys replaced (None removes)."""
    doc = json.loads(fileio.dumps(B))
    for key, value in changes.items():
        if value is None:
            doc.pop(key)
        else:
            doc[key] = value
    path = tmp_path / "brace.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_rejects_low_class_bound_like_loading(capsys, tmp_path, braces_q):
    # f4's brace has strong index 4, the class of its L_1; a declared
    # bound of 2 is a lie that every command must reject the same way.
    # validate prints the law stages, which pass, and no chain
    path = _brace_file(tmp_path, braces_q["f4"], class_bound=2)
    code, chains_out, _ = run(capsys, "chains", path)
    assert code == 2
    assert chains_out == ("FAIL: nilpotency class 4 of L_1 exceeds "
                          "declared class bound 2\n")
    assert run(capsys, "validate", path) == (
        2, "kind: brace\nfield: Q\ndim: 4\nleft-brace laws: PASS\ngroup laws: PASS\n"
        "F-linearity: PASS\n" + chains_out, "")


def test_validate_without_class_bound(capsys, tmp_path, braces_q):
    path = _brace_file(tmp_path, braces_q["f4"], class_bound=None)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out.endswith("strong: 4,3,2,0 strongly nilpotent index 4\nVALID\n")


def test_validate_fails_at_the_table_key_when_the_checks_miss(capsys, tmp_path):
    # star(a, b) = 6 a_0 a_1 a_2 b_0 e_4 breaks the law off the basis
    # only; the basis sweep passes it, and the reconstruction fails it
    # where it differs from the flows brace of L_1 = 0, by e_4
    doc = {"format_version": 1, "kind": "brace", "field": "Q", "dim": 4,
           "entries": [[3, [0, 1, 2], 0, 3, "1"]]}
    path = tmp_path / "miss.json"
    path.write_text(json.dumps(doc))
    head = "kind: brace\nfield: Q\ndim: 4\n"
    fail = "FAIL: brace round trip violated at (3, (0, 1, 2), 0) residual (0, 0, 0, 1)\n"
    assert run(capsys, "validate", str(path)) == (
        2, head + "left-brace laws: PASS\ngroup laws: PASS\nF-linearity: PASS\n" + fail, "")
    assert run(capsys, "chains", str(path)) == (2, fail, "")


def test_validate_fails_a_degree_one_table_that_is_not_nilpotent(capsys, tmp_path):
    # e1e1 = e1 is associative, so it passes the left-brace law; the
    # circ inverse of e1 has no finite fixed point.  Over Q a degree-1
    # table that passes both law stages is nilpotent: its basis vectors
    # are then nilpotent, so every left multiplication has trace 0, and
    # an idempotent would have the trace of its rank
    path = tmp_path / "idempotent.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "brace", "field": "Q",
                                "dim": 1, "entries": [[1, [0], 0, 0, "1"]]}))
    assert run(capsys, "validate", str(path)) == (
        2, "kind: brace\nfield: Q\ndim: 1\nleft-brace laws: PASS\n"
        "FAIL: circ inverse violated at (0,)\n", "")


def _ring_brace_file(tmp_path, class_bound):
    """The adjoint brace a*b = ab of x Q[x]/(x^8), basis x..x^7: dim 7,
    only a degree-1 part, strong index 8."""
    doc = {"format_version": 1, "kind": "brace", "field": "Q", "dim": 7,
           "entries": [[1, [i], j, i + j + 1, "1"]
                       for i in range(7) for j in range(7) if i + j + 1 < 7]}
    if class_bound is not None:
        doc["class_bound"] = class_bound
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    return str(path)


_RING_LAWS = ("kind: brace\nfield: {}\ndim: 7\n"
              "left-brace laws: PASS\ngroup laws: PASS\nF-linearity: PASS\n")


@pytest.mark.parametrize("class_bound, rest", [
    (None, "left: 7,6,5,4,3,2,1,0 nilpotent index 8\nright: 7,6,5,4,3,2,1,0 nilpotent index 8\n"
           "strong: 7,6,5,4,3,2,1,0 strongly nilpotent index 8\nVALID\n"),
    (8, "left: 7,6,5,4,3,2,1,0 nilpotent index 8\nright: 7,6,5,4,3,2,1,0 nilpotent index 8\n"
        "strong: 7,6,5,4,3,2,1,0 strongly nilpotent index 8\nVALID\n"),
    (2, "FAIL: nilpotency class 8 of L_1 exceeds declared class bound 2\n")],
    ids=["none", "8", "2"])
def test_circ_inverse_needs_no_class_bound(capsys, tmp_path, class_bound, rest):
    # the circ inverse iteration converges within dim + 1 steps whatever
    # the file declares, so only the declared bound itself can fail; a
    # rejected brace prints no chain
    code, out, _ = run(capsys, "validate", _ring_brace_file(tmp_path, class_bound))
    assert (code, out) == (0 if class_bound != 2 else 2, _RING_LAWS.format("Q") + rest)


@pytest.mark.parametrize("class_bound", [None, 8], ids=["none", "8"])
def test_brace_characteristic_must_exceed_strong_index(capsys, tmp_path, class_bound):
    # over GF(3) the ring brace passes its laws, but the class 8 of its
    # L_1 is not below the characteristic: every command fails alike
    path = _ring_brace_file(tmp_path, class_bound)
    line = "FAIL: characteristic 3 must exceed the nilpotency class 8\n"
    code, out, _ = run(capsys, "to-prelie", path, "--field", "3",
                       "--out", str(tmp_path / "unused.json"))
    assert (code, out) == (2, line)
    code, out, _ = run(capsys, "validate", path, "--field", "3")
    assert (code, out) == (2, _RING_LAWS.format("GF(3)") + line)
    code, out, _ = run(capsys, "chains", path, "--field", "3")
    assert (code, out) == (2, line)


def test_validate_small_characteristic_like_loading(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", corpus_file("f4"), "--field", "3")
    assert code == 2
    assert out.startswith("kind: prelie\nfield: GF(3)\ndim: 4\n"
                          "pre-Lie identity: PASS\nnilpotent: class 4\n")
    code, load_out, _ = run(capsys, "to-brace", corpus_file("f4"), "--field", "3",
                            "--out", str(tmp_path / "unused.json"))
    assert code == 2
    assert load_out == "FAIL: characteristic 3 must exceed the nilpotency class 4\n"
    assert out.splitlines()[-1] + "\n" == load_out


def test_validate_malformed_exit_1(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("flags, err", [
    ((), "error: missing field 'kind'\n"),
    (("--field", "7"), "error: top level must be an object\n")])
def test_top_level_list_exit_1(capsys, tmp_path, flags, err):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n")
    assert run(capsys, "validate", str(path), *flags) == (1, "", err)


@pytest.mark.parametrize("content, err", [
    (b'{"kind": "prelie", "basis": ["\xc3\xa9"]}\n', "codec can't decode byte 0xc3"),
    (b"[" * 100000, "error: not valid JSON: nested too deeply\n"),
    (b'{"format_version": 1, "kind": "prelie", "field": "Q", "dim": true, "entries": []}',
     "error: dim must be a positive integer\n")],
    ids=["non-ascii", "nested", "boolean-dim"])
def test_hostile_file_exit_1(capsys, tmp_path, content, err):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    code, out, stderr = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert stderr.startswith("error: ") and err in stderr


def test_usage_error_exit_1(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 1


def test_conversion_file_round_trip(capsys, tmp_path):
    brace_path = tmp_path / "f4_brace.json"
    back_path = tmp_path / "f4_back.json"
    code, out, _ = run(capsys, "to-brace", corpus_file("f4"), "--out", str(brace_path))
    assert code == 0 and "class 4" in out
    code, _, _ = run(capsys, "to-prelie", str(brace_path), "--out", str(back_path))
    assert code == 0
    assert back_path.read_text() == corpus_path("f4").read_text()


def test_to_brace_output_matches_library(capsys, tmp_path, braces_q):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "to-brace", corpus_file("h3"), "--out", str(path))
    assert code == 0
    assert fileio.read_file(path) == braces_q["h3"]


@pytest.mark.parametrize("name", ["zero2", "n2", "h3", "f4"])
def test_roundtrip_ok(capsys, name):
    code, out, _ = run(capsys, "roundtrip", corpus_file(name))
    assert code == 0
    assert "PASS" in out


def test_roundtrip_tampered_brace_exit_2(capsys, tmp_path, braces_q):
    doc = json.loads(fileio.dumps(braces_q["f4"]))
    for entry in doc["entries"]:
        if entry[0] == 2:
            entry[4] = "7/2"
            break
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "roundtrip", str(path))
    assert code == 2
    assert "FAIL" in out


def test_chains_output_frozen(capsys):
    code, out, _ = run(capsys, "chains", corpus_file("n2"))
    assert code == 0
    assert out == ("left: 2,1,0 nilpotent index 3\n"
                   "right: 2,1,0 nilpotent index 3\n"
                   "strong: 2,1,0 strongly nilpotent index 3\n")


def test_chains_f4(capsys):
    code, out, _ = run(capsys, "chains", corpus_file("f4"))
    assert code == 0
    assert "strong: 4,3,2,0 strongly nilpotent index 4" in out


def test_bch_command(capsys):
    code, out, _ = run(capsys, "bch", corpus_file("h3"))
    assert code == 0
    assert out == "flows-BCH identity: PASS (class 3, trials 20)\n"


def test_doubling_matrix_frozen_and_deterministic(capsys):
    code, out1, _ = run(capsys, "doubling-matrix", "--degree", "2")
    assert code == 0
    assert out1 == ("degree bound: 2\n"
                    "words: (x*y)\n"
                    "row 0: 2\n"
                    "upper triangular: yes\n"
                    "diagonal: 2\n"
                    "diagonal entries equal to 2: 1\n"
                    "diagonal matches 2^(x count): yes\n")
    code, out2, _ = run(capsys, "doubling-matrix", "--degree", "2")
    assert out2 == out1


def test_doubling_matrix_degree_4(capsys):
    code, out, _ = run(capsys, "doubling-matrix", "--degree", "4")
    assert code == 0
    assert "upper triangular: yes" in out


# SHA-256 of the doubling-matrix stdout, recorded while every StarExpr
# sum was rebuilt through the coercing constructor
DOUBLING_MATRIX_SHA256 = {
    "3": "8ee46b30c0f77212b6b4a87593115305762c9f422e393cf5d485e5a747079949",
    "4": "0030d5cab62d37116c719807e6bcd50ac88d642c1cd304a62a3c5f2ce2fa5259",
    "5": "6d10db4095a57131cff5e4c29cb2f373e22eb231e4f6609ee669f1209b7ade69",
    "6": "cfecb9b447baf88f02267485d31703c27345be8403894d033cc57187aa012f06",
}


@pytest.mark.parametrize("degree", sorted(DOUBLING_MATRIX_SHA256))
def test_doubling_matrix_stdout_pinned(capsys, degree):
    code, out, err = run(capsys, "doubling-matrix", "--degree", degree)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DOUBLING_MATRIX_SHA256[degree]


# degree 7, recorded with the halving split of the star's left slot.
# Peeling one unit copy at a time printed another matrix (SHA-256
# 0a3df6d1ece0373ed5f015ca5862f955c3d7d00298288b40997560271c7fc7d4);
# both are V_{2x,y} = M V_{x,y} in braces of class 7
# (tests/test_free_expansion.py)
DOUBLING_MATRIX_7_SHA256 = "5ccebe2b4bf41e2e6d6d2b864f50200cae99d5e949e3e1e45ed48a96d8ffc8e4"


def test_doubling_matrix_degree_7_pinned(capsys):
    code, out, err = run(capsys, "doubling-matrix", "--degree", "7")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DOUBLING_MATRIX_7_SHA256


@pytest.mark.parametrize("degree", ["1", "0", "-3"])
def test_doubling_matrix_degree_below_two_is_usage_error(capsys, degree):
    code, out, err = run(capsys, "doubling-matrix", "--degree", degree)
    assert (code, out) == (1, "")
    assert err.endswith(f"argument --degree: degree bound must be at least 2, "
                        f"got {degree}\n")


def test_field_override(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", corpus_file("f4"), "--field", "7")
    assert code == 0
    assert "field: GF(7)" in out
    # class 4 over GF(3) must be rejected as a mathematical failure
    code, out, _ = run(capsys, "validate", corpus_file("f4"), "--field", "3")
    assert code == 2


@pytest.mark.parametrize("flags", [("--field", "0"), ()], ids=["flag", "file"])
def test_characteristic_zero_is_no_prime_field_exit_1(capsys, tmp_path, flags):
    doc = json.loads(corpus_path("f4").read_text())
    doc["field"] = {"p": 0}
    path = tmp_path / "p0.json"
    path.write_text(json.dumps(doc))
    source = corpus_file("f4") if flags else str(path)
    assert run(capsys, "validate", source, *flags) == (
        1, "", "error: characteristic must be a prime, got 0\n")


@pytest.mark.parametrize("p, flags", [
    (-7, ("--field", "-7")), (4, ("--field", "4")), (4, ())],
    ids=["flag -7", "flag 4", "file 4"])
def test_non_prime_characteristic_exit_1(capsys, tmp_path, p, flags):
    doc = json.loads(corpus_path("f4").read_text())
    doc["field"] = {"p": p}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    source = corpus_file("f4") if flags else str(path)
    assert run(capsys, "validate", source, *flags) == (
        1, "", f"error: characteristic must be a prime, got {p}\n")


def test_repeated_runs_byte_identical(capsys, tmp_path, braces_q):
    path = tmp_path / "v5_brace.json"
    fileio.write_file(braces_q["v5"], path)
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


# exit codes on the pre-Lie h3 file and on h3's brace declaring class 3
ADMITTED_CODES = {"validate": (0, 0), "to-brace": (0, 1), "to-prelie": (1, 0),
                   "roundtrip": (0, 0), "chains": (0, 0), "bch": (0, 1)}


@pytest.mark.parametrize("command", sorted(ADMITTED_CODES))
def test_file_commands_draw_nothing(capsys, tmp_path, braces_q, command):
    # no verdict rests on a draw: nothing is drawn on a pre-Lie file, on
    # a brace the reconstruction admits, or on one it rejects, which runs
    # the law-by-law checks (h3's L_1 has class 3 > 2; the degree-3 entry
    # of the last brace breaks the law off the basis only)
    miss = tmp_path / "miss.json"
    miss.write_text(json.dumps({"format_version": 1, "kind": "brace", "field": "Q",
                                "dim": 4, "entries": [[3, [0, 1, 2], 0, 3, "1"]]}))
    out = ["--out", str(tmp_path / "out.json")] if command in ("to-brace", "to-prelie") else []
    codes = {sampling.rng_from.__code__: "rng_from",
             sampling.random_ints.__code__: "random_ints",
             brace.check_left_brace.__code__: "check_left_brace"}
    calls, results = [], []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(codes[frame.f_code])

    paths = [lambda: corpus_file("h3"),
             lambda: _brace_file(tmp_path, braces_q["h3"], class_bound=3),
             lambda: _brace_file(tmp_path, braces_q["h3"], class_bound=2),
             lambda: str(miss)]
    for path in paths:
        path = path()
        sys.setprofile(hook)
        try:
            results.append(run(capsys, command, path, *out)[0])
        finally:
            sys.setprofile(None)
    assert tuple(results) == ADMITTED_CODES[command] + (2, 2)
    assert calls == ["check_left_brace"] * 2


def test_fbrace_is_structural(capsys, tmp_path, monkeypatch, braces_q):
    # F-linearity holds for every GradedBrace by its form: once the group
    # laws have passed, validation evaluates no star, and still prints
    # the F-linearity line.  The class bound 2 < 4 makes reconstruction
    # reject f4's brace, so the checked stages run.
    def refuse(*args):
        raise AssertionError("F-linearity evaluated a star")

    check_group, checked = brace.check_group, []

    def check_group_then_refuse(B):
        viol = check_group(B)
        checked.append(B)
        monkeypatch.setattr(brace.GradedBrace, "_star", refuse)
        return viol

    monkeypatch.setattr(brace, "check_group", check_group_then_refuse)
    code, out, _ = run(capsys, "validate",
                       _brace_file(tmp_path, braces_q["f4"], class_bound=2))
    assert (code, len(checked)) == (2, 1)
    assert "group laws: PASS\nF-linearity: PASS\nFAIL: " in out
    assert brace.check_fbrace(braces_q["f4"]) is None


def _calls(func, thunk):
    """Number of calls of ``func`` while ``thunk`` runs, under any name."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is func.__code__:
            calls += 1

    sys.setprofile(hook)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("kind", ["prelie", "brace"])
def test_chains_computes_chains_once(capsys, tmp_path, braces_q, kind):
    path = corpus_file("f4") if kind == "prelie" else _brace_file(tmp_path, braces_q["f4"])
    # one ChainReport is built (for both kinds it is read off f4's table,
    # whose strong chain validation kept) and no brace's chains are spanned
    result = []
    assert _calls(prelie.chain_report,
                  lambda: result.append(run(capsys, "chains", path))) == 1
    assert _calls(brace.radical_chains, lambda: run(capsys, "chains", path)) == 0
    assert result[0][:2] == (0, "left: 4,3,1,0 nilpotent index 4\n"
                                "right: 4,3,1,0 nilpotent index 4\n"
                                "strong: 4,3,2,0 strongly nilpotent index 4\n")


@pytest.mark.parametrize("flag", [("--field", "7"), ("--trials", "3"), ("--seed", "5")])
def test_doubling_matrix_takes_only_degree(capsys, flag):
    code, out, err = run(capsys, "doubling-matrix", "--degree", "3", *flag)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


# each subcommand's options; an option added or dropped fails here
OPTIONS = {"validate": {"--field"}, "to-brace": {"--field", "--out"},
           "to-prelie": {"--field", "--out"}, "roundtrip": {"--field"},
           "chains": {"--field"}, "bch": {"--field"}, "doubling-matrix": {"--degree"}}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommands_take_only_their_options(capsys, tmp_path, command):
    sub = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction))
    parser = sub.choices[command]
    assert {s for a in parser._actions for s in a.option_strings} == (
        OPTIONS[command] | {"-h", "--help"})
    if command == "doubling-matrix":
        argv = [command, "--degree", "3"]
    else:
        argv = [command, corpus_file("h3")]
        if "--out" in OPTIONS[command]:
            argv += ["--out", str(tmp_path / "out.json")]
    for flag in (("--field", "7"), ("--trials", "3"), ("--seed", "5")):
        if flag[0] in OPTIONS[command]:
            continue
        code, out, err = run(capsys, *argv, *flag)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
