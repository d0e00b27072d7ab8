"""Regenerate the benchmark's fixtures and recorded expectations.

    python3 bench/make_fixtures.py

run from the root of the repository.  It writes the brace fixtures made
by the current ``to_brace`` (v_6 over GF(11) takes about a minute) and
``fixtures/expected.json``: the SHA-256 of each fixture, the SHA-256
of the canonical-basis to-brace output of each ``extract`` input, the
stdout of ``doubling-matrix`` and of each job on a corrupted brace.
"""

import contextlib
import io
import json
import shutil
import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import generators as gen  # noqa: E402
import workloads as wl  # noqa: E402
from braceflow import GF, Q, PreLieAlgebra, cli, fileio, to_brace  # noqa: E402


def canonical_brace(s, p):
    structure = {}
    for (_, (i,), j, k), val in s.entries.items():
        structure.setdefault((i, j), {})[k] = val
    return fileio.dumps(to_brace(PreLieAlgebra(Q if p == 0 else GF(p), s.dim, structure)))


def stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def main():
    expected = {"fixtures": {}, "to_brace": {}, "corrupt": {}, "doubling_matrix": {}}
    braces = {}
    for name, p in wl.FIXTURE_BRACES:
        fname = f"{name}_{wl.field_tag(p)}.json"
        text = braces[(name, p)] = canonical_brace(gen.v(int(name[1:])), p)
        (wl.FIXTURES / fname).write_text(text, encoding="ascii")
        expected["fixtures"][fname] = wl.sha256(text)
        print(f"wrote {fname}", flush=True)
    for s, p in wl.EXTRACT_INPUTS:
        text = braces.get((s.name, p)) or canonical_brace(s, p)
        expected["to_brace"][f"{s.name}_{wl.field_tag(p)}"] = wl.sha256(text)
    code, out = stdout_of(["doubling-matrix", "--degree", "5"])
    if code != 0:
        raise SystemExit(f"doubling-matrix --degree 5 exited {code}")
    expected["doubling_matrix"]["5"] = out
    workdir = ROOT / ".bench_run" / "make_fixtures"
    jobs, _ = wl.build("certify", workdir, 0, expected)
    for job in jobs:
        if job.code == 2:
            code, out = stdout_of(job.argv)
            if code != 2 or not out.splitlines()[-1].startswith("FAIL"):
                raise SystemExit(f"{job.name}: exit {code}, stdout {out!r}")
            expected["corrupt"][job.name] = out
    shutil.rmtree(workdir)
    wl.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                           encoding="ascii")
    print(f"wrote {wl.EXPECTED.name}")


if __name__ == "__main__":
    main()
