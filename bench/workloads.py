"""The benchmark's workloads: the input files each one writes, the CLI
jobs it runs on them, and the expected outcome of every job.

A workload is a fixed ladder of jobs.  Each job is one CLI command on
one file; its exit code and stdout must equal the expected ones, and its
output file (if any) must pass the job's check.  Stdout of a valid input
does not depend on the seed (dims, classes and chain dims are invariants
of the change of basis), so it is spelled out here from the generators'
invariants.  The corrupted copies are built in the canonical basis, so
their recorded FAIL output does not depend on the seed either.
"""

import hashlib
import json

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import generators as gen
from braceflow import GF, Q, GradedBrace, PreLieAlgebra, SymmetricMap, Vec
from braceflow import fileio, limits

FIXTURES = Path(__file__).resolve().parent / "fixtures"
EXPECTED = FIXTURES / "expected.json"

# The ladders are short (about 5 s a pass on a 2-vCPU VM) and no job
# takes much over 2 s, so that a run holds several passes, every median
# has several samples, and the calibrations around a job see the host
# speed the job saw (see run.py).  That is why to-brace on v_5 over GF(7)
# (8 s), v_6 over Q and the chains and to-prelie jobs on the 5x5 radical
# ring are left out.

# the brace fixtures, made once by the current to_brace
# (``python3 bench/make_fixtures.py``); v_6 over GF(11) takes a minute
FIXTURE_BRACES = (("v4", 0), ("v4", 7), ("v5", 0), ("v5", 7), ("v6", 11))

# the to-brace inputs of ``extract``
EXTRACT_INPUTS = tuple((s, p) for p in (0, 11)
                       for s in (gen.h3(), gen.f4(), gen.v(3), gen.v(4), gen.trees(3)))


def field_tag(p):
    return "Q" if p == 0 else f"GF{p}"


def sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_expected():
    return json.loads(EXPECTED.read_text(encoding="ascii"))


def read_fixture(name, expected):
    """Text of a committed fixture; refuses one whose hash is not the
    recorded one."""
    text = (FIXTURES / name).read_text(encoding="ascii")
    if sha256(text) != expected["fixtures"].get(name):
        raise SystemExit(f"fixture {name} does not match its recorded SHA-256; "
                         "regenerate with: python3 bench/make_fixtures.py")
    return text


def parse_entries(text, p):
    """Raw (degree, tuple, j, out) -> value table of a brace file."""
    doc = json.loads(text)
    return {(k, tuple(tup), j, out): Fraction(val) if p == 0 else int(val)
            for k, tup, j, out, val in doc["entries"]}


def prelie_text(p, dim, entries):
    structure = {}
    for (_, (i,), j, k), val in entries.items():
        structure.setdefault((i, j), {})[k] = val
    field = Q if p == 0 else GF(p)
    return fileio.dumps(PreLieAlgebra(field, dim, structure, validate=False))


def brace_text(p, dim, entries, class_bound):
    field = Q if p == 0 else GF(p)
    tables = {}
    for (k, tup, j, out), val in entries.items():
        tables.setdefault(k, {}).setdefault((tup, j), [0] * dim)[out] = val
    lambdas = {k: SymmetricMap(field, dim, k, {key: Vec(field, ent)
                                               for key, ent in table.items()})
               for k, table in tables.items()}
    return fileio.dumps(GradedBrace(field, dim, lambdas, class_bound=class_bound,
                                    validate=False))


@dataclass
class Job:
    """One CLI command with its expected exit code and stdout; ``check``
    inspects the output file and returns an error message or None."""

    name: str
    argv: list
    code: int
    stdout: str
    out: Path = None
    check: object = None


def _chain_lines(s):
    labels = ("nilpotent", "nilpotent", "strongly nilpotent")
    return "".join(
        f"{side}: {','.join(map(str, dims))} {label} index {len(dims)}\n"
        for side, dims, label in zip(("left", "right", "strong"), s.chains, labels))


class Builder:
    """Writes one workload's inputs for one seed into ``workdir`` and
    returns its ladder of jobs."""

    def __init__(self, workdir, seed, expected):
        self.dir = Path(workdir)
        self.seed = seed
        self.expected = expected
        self.dir.mkdir(parents=True, exist_ok=True)

    def _write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="ascii")
        # load the written file back as every job will: parse, no validation
        fileio.loads(path.read_text(encoding="ascii"), validate=False)
        return path

    def _relabelled(self, s, p, entries=None):
        sigma, scales = gen.relabelling(s.dim, self.seed)
        return gen.relabel(s.entries if entries is None else entries, sigma, scales, p)

    def prelie_input(self, s, p):
        text = prelie_text(p, s.dim, self._relabelled(s, p))
        return self._write(f"{s.name}_{field_tag(p)}.json", text), text

    def brace_input(self, s, p, canonical):
        """Write the relabelled brace; also return the relabelled pre-Lie
        text that to-prelie must reproduce."""
        brace = brace_text(p, s.dim, self._relabelled(s, p, canonical), s.nil_class)
        path = self._write(f"{s.name}_{field_tag(p)}_brace.json", brace)
        return path, prelie_text(p, s.dim, self._relabelled(s, p))

    # -- job kinds ------------------------------------------------------

    def to_brace(self, s, p):
        path, text = self.prelie_input(s, p)
        key = f"{s.name}_{field_tag(p)}"
        out = self.dir / f"{key}_out.json"
        sigma, scales = gen.relabelling(s.dim, self.seed)

        def check(result):
            back = limits.to_prelie(fileio.loads(result, validate=False))
            if fileio.dumps(back) != text:
                return "output does not round-trip to its input"
            canon = gen.unrelabel(parse_entries(result, p), sigma, scales, p)
            want = self.expected["to_brace"][key]
            if sha256(brace_text(p, s.dim, canon, s.nil_class)) != want:
                return "output in the canonical basis differs from the recorded hash"
            return None

        return Job(f"to-brace {key}", ["to-brace", str(path), "--out", str(out)], 0,
                   f"wrote {out} (brace, dim {s.dim}, class {s.nil_class})\n",
                   out, check)

    def validate_prelie(self, s, p):
        path, _ = self.prelie_input(s, p)
        field = Q if p == 0 else GF(p)
        stdout = (f"kind: prelie\nfield: {field}\ndim: {s.dim}\n"
                  f"pre-Lie identity: PASS\nnilpotent: class {s.nil_class}\nVALID\n")
        return Job(f"validate {s.name}_{field_tag(p)}", ["validate", str(path)], 0, stdout)

    def bch(self, s, p):
        path, _ = self.prelie_input(s, p)
        return Job(f"bch {s.name}_{field_tag(p)}", ["bch", str(path)], 0,
                   f"flows-BCH identity: PASS (class {s.nil_class}, trials 20)\n")

    def doubling_matrix(self, degree):
        want = self.expected["doubling_matrix"][str(degree)]
        return Job(f"doubling-matrix {degree}",
                   ["doubling-matrix", "--degree", str(degree)], 0, want)

    def certify(self, s, p, canonical, commands=("validate", "chains", "to-prelie")):
        """``commands`` on one brace file."""
        path, prelie = self.brace_input(s, p, canonical)
        key = f"{s.name}_{field_tag(p)}"
        field = Q if p == 0 else GF(p)
        chains = _chain_lines(s)
        out = self.dir / f"{key}_prelie.json"

        def check(result):
            return None if result == prelie else "output is not the relabelled algebra"

        jobs = {
            "validate": Job(f"validate {key}", ["validate", str(path)], 0,
                            f"kind: brace\nfield: {field}\ndim: {s.dim}\n"
                            f"left-brace laws: PASS\ngroup laws: PASS\n"
                            f"F-linearity: PASS\n{chains}VALID\n"),
            "chains": Job(f"chains {key}", ["chains", str(path)], 0, chains),
            "to-prelie": Job(f"to-prelie {key}", ["to-prelie", str(path), "--out", str(out)],
                             0, f"wrote {out} (prelie, dim {s.dim}, class {s.nil_class})\n",
                             out, check),
        }
        return [jobs[c] for c in commands]

    def corrupted(self, command, s, p, canonical):
        """``command`` on a copy of the canonical brace whose first
        structure constant of the top degree is off by one."""
        key = f"{s.name}_{field_tag(p)}"
        entries = dict(canonical)
        degree = max(key[0] for key in entries)
        top = min(key for key in entries if key[0] == degree)
        entries[top] = (entries[top] + 1) % p if p else entries[top] + 1
        path = self._write(f"{key}_corrupt.json",
                           brace_text(p, s.dim, entries, s.nil_class))
        name = f"{command} {key}_corrupt"
        argv = [command, str(path)]
        if command == "to-prelie":
            argv += ["--out", str(self.dir / f"{key}_corrupt_prelie.json")]
        return Job(name, argv, 2, self.expected["corrupt"].get(name, ""))


def canonical_fixture(name, p, expected):
    return parse_entries(read_fixture(f"{name}_{field_tag(p)}.json", expected), p)


def extract(b):
    return [b.to_brace(s, p) for s, p in EXTRACT_INPUTS]


def certify(b):
    jobs = []
    for name, p in FIXTURE_BRACES:
        commands = ("validate",) if name == "v6" else ("validate", "chains", "to-prelie")
        jobs += b.certify(gen.v(int(name[1:])), p, canonical_fixture(name, p, b.expected),
                          commands)
    for m, p in ((4, 0), (4, 5)):
        jobs += b.certify(gen.upper(m), p, gen.upper(m).entries)
    jobs += b.certify(gen.upper(5), 0, gen.upper(5).entries, ("validate",))
    jobs.append(b.corrupted("validate", gen.v(4), 0, canonical_fixture("v4", 0, b.expected)))
    jobs.append(b.corrupted("to-prelie", gen.upper(5), 0, gen.upper(5).entries))
    return jobs


def structure(b):
    jobs = []
    for s, p in ((gen.v(8), 11), (gen.v(10), 13), (gen.trees(4), 7), (gen.trees(5), 7)):
        jobs += [b.validate_prelie(s, 0), b.validate_prelie(s, p)]
    for s in (gen.v(4), gen.trees(4)):
        jobs += [b.bch(s, 0), b.bch(s, 7)]
    jobs.append(b.doubling_matrix(5))
    return jobs


# name -> (ladder builder, name of the heaviest job)
WORKLOADS = {
    "extract": (extract, "to-brace v4_Q"),
    "certify": (certify, "validate U5_Q"),
    "structure": (structure, "validate T5_Q"),
}


def build(workload, workdir, seed, expected):
    ladder, heavy = WORKLOADS[workload]
    return ladder(Builder(workdir, seed, expected)), heavy
