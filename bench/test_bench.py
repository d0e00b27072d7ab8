"""Tests of the benchmark itself: the generators' self-check, and that
the command fails when an output or a fixture differs from its recorded
hash, or when there are no sources to measure.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys

from pathlib import Path

import generators

REPO = Path(__file__).resolve().parent.parent


def _checkout(tmp_path, with_src=True):
    """A copy of the benchmark directory, with the repository's sources
    linked beside it."""
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (tmp_path / "src").symlink_to(REPO / "src")
    return tmp_path


def _run(root, workload):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_generators_self_check():
    sys.path.insert(0, str(REPO / "src"))
    checked, problems = generators.self_check()
    assert checked > 30 and problems == []


def test_wrong_expected_hash_fails_the_run(tmp_path):
    root = _checkout(tmp_path)
    expected_path = root / "bench" / "fixtures" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["to_brace"]["h3_Q"] = "0" * 64
    expected_path.write_text(json.dumps(expected))
    proc = _run(root, "extract")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "to-brace h3_Q" in proc.stderr


def test_changed_fixture_is_refused(tmp_path):
    root = _checkout(tmp_path)
    with open(root / "bench" / "fixtures" / "v4_Q.json", "a") as fh:
        fh.write(" ")
    proc = _run(root, "certify")
    assert proc.returncode != 0 and proc.stdout == ""
    assert "v4_Q.json does not match its recorded SHA-256" in proc.stderr


def test_no_sources_exits_without_a_result(tmp_path):
    proc = _run(_checkout(tmp_path, with_src=False), "structure")
    assert proc.returncode != 0 and proc.stdout == ""
