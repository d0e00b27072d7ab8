"""The benchmark tracer (bench/tracing.py) names library functions by
their dotted path; a rename or deletion in the library would crash a
traced benchmark run.  These tests load the tracer by path and check
that every name it patches still resolves, and that the validation
stages reach the traced checks."""

import importlib
import importlib.util
import json

from fractions import Fraction
from pathlib import Path

import pytest

from braceflow import fileio, flows
from braceflow.cli import main
from braceflow.corpus import corpus_path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [n for ns in module.LAYERS.values() for n in ns]
    names += list(module.COUNTED.values())
    for dotted in names:
        importlib.import_module("braceflow." + dotted.split(".")[0])
    return module


def test_every_traced_name_resolves(tracing):
    names = [n for ns in tracing.LAYERS.values() for n in ns]
    assert "cli.main" in names
    for dotted in names + list(tracing.COUNTED.values()):
        owner, attr, original = tracing._resolve(dotted)
        assert callable(original), dotted


def _traced_calls(tracing, *argv):
    with tracing.SpanTracer() as tracer:
        code = main(list(argv))
    per_name, _ = tracer.summary()
    return code, {name: calls for name, (calls, _) in per_name.items()}


def _brace_file(path, B):
    fileio.write_file(B, path)
    return str(path)


def test_validate_stages_reach_traced_checks(tracing, tmp_path, capsys, braces_q):
    code, calls = _traced_calls(tracing, "validate", str(corpus_path("h3")))
    assert code == 0
    for name in ("prelie.check_prelie_identity", "prelie.nilpotency_index"):
        assert calls[name] == 1, name
    # an admitted brace is reconstructed: L_1's checks and a comparison of
    # the tables on ints, with no extraction and no brace check (its
    # chains are read off L_1's table)
    path = tmp_path / "n2_brace.json"
    fileio.write_file(braces_q["n2"], path)
    code, calls = _traced_calls(tracing, "validate", str(path))
    assert code == 0
    for name in ("prelie.check_prelie_identity", "prelie.nilpotency_index"):
        assert calls[name] == 1, name
    for name in ("flows.to_brace", "brace.check_left_brace", "brace.check_group",
                 "brace.check_fbrace", "brace.radical_chains"):
        assert calls[name] == 0, name
    # a brace the reconstruction rejects (its L_1 has class 3 > 2) reaches
    # every brace law check, and no chain and no extraction
    doc = json.loads(fileio.dumps(braces_q["n2"]))
    doc["class_bound"] = 2
    path.write_text(json.dumps(doc))
    code, calls = _traced_calls(tracing, "validate", str(path))
    assert code == 2
    for name in ("brace.check_left_brace", "brace.check_group", "brace.check_fbrace"):
        assert calls[name] == 1, name
    assert calls["brace.radical_chains"] == 0
    assert calls["flows.to_brace"] == 0
    # a table that differs from to_brace(L_1) (v5's first top-degree
    # entry plus one) is rejected on ints; the checks then fail it at the
    # left-brace law, so no extraction names the differing key
    doc = json.loads(fileio.dumps(braces_q["v5"]))
    top = max(entry[0] for entry in doc["entries"])
    entry = next(e for e in doc["entries"] if e[0] == top)
    entry[-1] = str(Fraction(entry[-1]) + 1)
    path.write_text(json.dumps(doc))
    code, calls = _traced_calls(tracing, "validate", str(path))
    assert code == 2
    assert calls["brace.check_left_brace"] == 1
    assert calls["flows.to_brace"] == 0
    capsys.readouterr()


def test_roundtrip_of_an_admitted_brace_extracts_nothing(tracing, tmp_path, capsys, braces_q,
                                                         monkeypatch):
    # admission compared the brace with to_brace(L_1) already, so the
    # brace round trip evaluates the generic kernel once, for admission,
    # and builds no flows brace
    real, kernel = flows._generic_stars, []
    monkeypatch.setattr(flows, "_generic_stars", lambda alg: kernel.append(alg) or real(alg))
    for name in ("f4", "v5"):
        path = _brace_file(tmp_path / f"{name}.json", braces_q[name])
        kernel.clear()
        code, calls = _traced_calls(tracing, "roundtrip", path)
        assert code == 0
        assert calls["flows.to_brace"] == 0, name
        assert calls["prelie.nilpotency_index"] == 1, name
        assert len(kernel) == 1, name
    assert capsys.readouterr().out == "brace round trip: PASS\n" * 2
