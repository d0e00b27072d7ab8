"""Command-line interface.

Exit codes: 0 on success, 1 on usage or parse errors, 2 on mathematical
violations.  Output is byte-identical for identical inputs: nothing is
drawn at random, scalars print canonically, and files are written with
sorted keys.
"""

import argparse
import sys

from . import bch as bch_mod
from . import brace, fileio, flows, limits, prelie
from .errors import AlgebraError, AlgebraFileError
from .free_expansion import doubling_matrix
from .prelie import PreLieAlgebra
from .scalars import Q


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _field_spec(text):
    if text == "Q":
        return "Q"
    try:
        return {"p": int(text)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected Q or a prime, got {text!r}")


def _degree_bound(text):
    """An argparse type: an int of at least 2, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"degree bound must be at least 2, got {value}")
    return value


def _read(args):
    """Read ``args.path`` unvalidated, over ``--field`` when given.

    Returns its kind ("prelie" or "brace"), the object, and the lazy
    generator of that kind's validation stages."""
    obj = fileio.read_file(args.path, validate=False, field=args.field)
    if isinstance(obj, PreLieAlgebra):
        return "prelie", obj, prelie.validation_stages(obj)
    return "brace", obj, brace.validation_stages(obj)


def _load(args, kind=None):
    """The validated object of ``args.path``; with ``kind``, a file of the
    other kind is a usage error, reported after a validation failure."""
    found, obj, stages = _read(args)
    for _ in stages:
        pass
    if kind is not None and found != kind:
        raise AlgebraFileError(f"{args.command} expects a {kind} file")
    return obj


def _fail(violation):
    print(f"FAIL: {violation}")
    return 2


def cmd_validate(args):
    kind, obj, stages = _read(args)
    print(f"kind: {kind}")
    print(f"field: {obj.field}")
    print(f"dim: {obj.dim}")
    for line in stages:
        print(line)
    print("VALID")
    return 0


def cmd_to_brace(args):
    alg = _load(args, "prelie")
    B = flows.to_brace(alg)
    fileio.write_file(B, args.out)
    print(f"wrote {args.out} (brace, dim {B.dim}, class {B.class_bound})")
    return 0


def cmd_to_prelie(args):
    B = _load(args, "brace")
    alg = limits.to_prelie(B)
    fileio.write_file(alg, args.out)
    print(f"wrote {args.out} (prelie, dim {alg.dim}, class {alg.nilpotency_class})")
    return 0


def cmd_roundtrip(args):
    obj = _load(args)
    if isinstance(obj, PreLieAlgebra):
        viol = limits.roundtrip_prelie(obj)
        label = "pre-Lie round trip"
    else:
        viol = limits.roundtrip_brace(obj)
        label = "brace round trip"
    if viol is not None:
        return _fail(viol)
    print(f"{label}: PASS")
    return 0


def cmd_chains(args):
    obj = _load(args)
    report = (prelie.chain_report(obj) if isinstance(obj, PreLieAlgebra)
              else obj.chains)  # a brace file's chains were proven while loading
    for line in report.lines():
        print(line)
    return 0


def cmd_bch(args):
    alg = _load(args, "prelie")
    viol = bch_mod.verify_flows_bch(alg)
    if viol is not None:
        return _fail(viol)
    # "trials 20" is legacy text that bench/workloads.py pins; dropping it
    # changes the benchmark's expected output (ROADMAP item 1)
    print(f"flows-BCH identity: PASS (class {alg.nilpotency_class}, trials 20)")
    return 0


def cmd_doubling_matrix(args):
    m, words = doubling_matrix(args.degree)
    print(f"degree bound: {args.degree}")
    print("words: " + " ".join(str(w) for w in words))
    for i, row in enumerate(m.rows):
        print(f"row {i}: " + " ".join(Q.to_str(e) for e in row))
    print(f"upper triangular: {'yes' if m.is_upper_triangular() else 'NO'}")
    diag = m.diagonal()
    print("diagonal: " + " ".join(Q.to_str(e) for e in diag))
    print(f"diagonal entries equal to 2: {sum(1 for e in diag if e == 2)}")
    expected = all(e == 2 ** w.count('x') for e, w in zip(diag, words))
    print(f"diagonal matches 2^(x count): {'yes' if expected else 'NO'}")
    if not (m.is_upper_triangular() and expected):
        return 2
    return 0


def build_parser():
    parser = _Parser(prog="braceflow",
                     description="exact pre-Lie algebra / brace correspondence")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, *, out=False):
        p = sub.add_parser(name)
        p.add_argument("path", help="algebra or brace file")
        if out:
            p.add_argument("--out", required=True, help="output file")
        p.add_argument("--field", type=_field_spec, default=None,
                       help="reinterpret scalars over Q or GF(p)")
        p.set_defaults(func=func)

    add("validate", cmd_validate)
    add("to-brace", cmd_to_brace, out=True)
    add("to-prelie", cmd_to_prelie, out=True)
    add("roundtrip", cmd_roundtrip)
    add("chains", cmd_chains)
    add("bch", cmd_bch)
    p = sub.add_parser("doubling-matrix")
    p.add_argument("--degree", type=_degree_bound, required=True,
                   help="degree bound (>= 2)")
    p.set_defaults(func=cmd_doubling_matrix)
    return parser


PARSER = build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except AlgebraFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AlgebraError as exc:
        print(f"FAIL: {exc}")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
