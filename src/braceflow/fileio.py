"""Structured-text (JSON) files for pre-Lie algebras and braces.

All indices in files are 0-based; scalars are exact "num/den" strings
(bare integers when the denominator is 1, residues over a prime field).
Serialization is deterministic: sorted keys, sorted entries, a trailing
newline.  Unknown fields are rejected on read.

A table goes from file to file as ints, with no scalar built: ``loads``
parses each "a/b" in one match to ints in lowest terms (over GF(p) to the
residue, unless p divides the reduced denominator) and builds each map
on them (``SymmetricMap._of_ints``); ``dumps`` prints from the int table.

pre-Lie file entries:  [i, j, k, value]   meaning  e_i * e_j += value e_k
brace file entries:    [k, [i_1 <= ... <= i_k], j, out, value]
                       the degree-k graded map on (e_{i_1}..e_{i_k}; e_j)
"""

import json
import math
import re

from .brace import GradedBrace, SymmetricMap
from .errors import AlgebraFileError, CharacteristicTooSmall
from .prelie import PreLieAlgebra
from .scalars import GF, Q

FORMAT_VERSION = 1

_PRELIE_KEYS = {"format_version", "kind", "field", "dim", "basis", "entries"}
_BRACE_KEYS = _PRELIE_KEYS | {"class_bound"}


def _field_to_json(field):
    return "Q" if field.characteristic == 0 else {"p": field.characteristic}


def _is_int(n):
    """A JSON integer; a JSON boolean is no integer, though Python's bool is an int."""
    return type(n) is int


def _field_from_json(spec):
    if spec == "Q":
        return Q
    if isinstance(spec, dict) and set(spec) == {"p"} and _is_int(spec["p"]):
        try:
            return GF(spec["p"])
        except ValueError as exc:
            raise AlgebraFileError(str(exc)) from None
    raise AlgebraFileError(f"bad field spec {spec!r}")


def _map_entries(lam):
    """(left tuple, j, out, value) for each nonzero coordinate of the
    SymmetricMap ``lam``, sorted by (left tuple, j), then out; each value
    n / den printed from the int table: "num/den" in lowest terms, a bare
    integer when the denominator is 1."""
    ints, den = lam._ints, lam._den
    for key in sorted(ints):
        for out, n in ints[key]:
            g = math.gcd(n, den)
            yield key[0], key[1], out, str(n // g) if g == den else f"{n // g}/{den // g}"


def algebra_to_json(alg):
    entries = [[tup[0], j, k, val]
               for tup, j, k, val in _map_entries(alg.product)]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "prelie",
        "field": _field_to_json(alg.field),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "entries": entries,
    }


def brace_to_json(B):
    entries = [[k, list(tup), j, out, val] for k in sorted(B.lambdas)
               for tup, j, out, val in _map_entries(B.lambdas[k])]
    return {
        "format_version": FORMAT_VERSION,
        "kind": "brace",
        "field": _field_to_json(B.field),
        "dim": B.dim,
        "class_bound": B.class_bound,
        "basis": list(B.basis_names),
        "entries": entries,
    }


def dumps(obj):
    if isinstance(obj, PreLieAlgebra):
        doc = algebra_to_json(obj)
    elif isinstance(obj, GradedBrace):
        doc = brace_to_json(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_file(obj, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(obj))


def _require(cond, message, *args):
    """AlgebraFileError unless cond, with ``message`` formatted by ``args`` only then."""
    if not cond:
        raise AlgebraFileError(message.format(*args) if args else message)


def _index(n, dim):
    return type(n) is int and 0 <= n < dim


def _common_header(doc, allowed):
    _require(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - allowed
    _require(not unknown, f"unknown fields {sorted(unknown)}")
    for key in ("format_version", "kind", "field", "dim", "entries"):
        _require(key in doc, f"missing field {key!r}")
    _require(_is_int(doc["format_version"]) and doc["format_version"] == FORMAT_VERSION,
             f"unsupported format_version {doc['format_version']!r}")
    field = _field_from_json(doc["field"])
    dim = doc["dim"]
    _require(_is_int(dim) and dim >= 1, "dim must be a positive integer")
    basis = doc.get("basis")
    if basis is not None:
        _require(isinstance(basis, list) and len(basis) == dim
                 and all(isinstance(b, str) for b in basis),
                 "basis must list dim names")
    _require(isinstance(doc["entries"], list), "entries must be a list")
    return field, dim, basis


_SCALAR_RE = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")


def _parse_scalar(p, s):
    """(n, d) with n / d the file scalar ``s`` in lowest terms, read in
    one match; over GF(p) (residue, 1)."""
    _require(isinstance(s, str), "values must be strings, got {!r}", s)
    match = _SCALAR_RE.match(s)
    _require(match is not None, "bad scalar {!r}", s)
    try:
        n, d = int(match[1]), int(match[2] or 1)
    except ValueError:  # more digits than int() reads
        raise AlgebraFileError(f"bad scalar {s!r}") from None
    g = math.gcd(n, d)
    n, d = n // g, d // g
    if p and d % p == 0:
        raise CharacteristicTooSmall(f"denominator {d} not invertible mod {p}")
    return (n * pow(d, -1, p) % p, 1) if p else (n, d)


def _int_map(field, dim, arity, rows):
    """The SymmetricMap of ``rows`` {key: {out: (n, d)}}, on ints over the
    lcm of the d."""
    den = math.lcm(*(d for row in rows.values() for _, d in row.values()))
    ints = {key: pairs for key, row in rows.items()
            if (pairs := tuple(sorted((o, n * (den // d)) for o, (n, d) in row.items() if n)))}
    return SymmetricMap._of_ints(field, dim, arity, ints, den)


def loads(text, validate=True, field=None):
    """Parse a pre-Lie or brace file; structural errors raise
    AlgebraFileError, mathematical validation (unless disabled) raises
    ValidationFailure as usual.

    ``field``, a field spec in the file format (``"Q"`` or ``{"p": 7}``),
    replaces the file's own field before parsing, so the file's scalars
    are read over that field instead."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise AlgebraFileError("not valid JSON: nested too deeply") from None
    if field is not None:
        _require(isinstance(doc, dict), "top level must be an object")
        doc["field"] = field
    _require(isinstance(doc, dict) and "kind" in doc, "missing field 'kind'")
    kind = doc["kind"]
    if kind == "prelie":
        field, dim, basis = _common_header(doc, _PRELIE_KEYS)
        structure = {}
        for entry in doc["entries"]:
            _require(isinstance(entry, list) and len(entry) == 4, "bad pre-Lie entry {!r}", entry)
            i, j, k, val = entry
            _require(_index(i, dim) and _index(j, dim) and _index(k, dim),
                     "index out of range in {!r}", entry)
            row = structure.setdefault(((i,), j), {})
            _require(k not in row, "duplicate entry for ({},{},{})", i, j, k)
            row[k] = _parse_scalar(field.characteristic, val)
        return PreLieAlgebra(field, dim, _int_map(field, dim, 1, structure),
                             basis_names=basis, validate=validate)
    if kind == "brace":
        field, dim, basis = _common_header(doc, _BRACE_KEYS)
        class_bound = doc.get("class_bound")
        _require(class_bound is None or (_is_int(class_bound) and class_bound >= 2),
                 "class_bound must be an integer >= 2")
        tables = {}
        for entry in doc["entries"]:
            _require(isinstance(entry, list) and len(entry) == 5, "bad brace entry {!r}", entry)
            k, tup, j, out, val = entry
            _require(_is_int(k) and k >= 1, "bad degree in {!r}", entry)
            _require(isinstance(tup, list) and len(tup) == k
                     and all(_index(n, dim) for n in tup) and tup == sorted(tup),
                     "bad left multi-index in {!r}", entry)
            _require(_index(j, dim) and _index(out, dim), "index out of range in {!r}", entry)
            row = tables.setdefault(k, {}).setdefault((tuple(tup), j), {})
            _require(out not in row, "duplicate entry for {!r}", entry)
            row[out] = _parse_scalar(field.characteristic, val)
        lambdas = {k: _int_map(field, dim, k, table) for k, table in tables.items()}
        return GradedBrace(field, dim, lambdas, class_bound=class_bound,
                           basis_names=basis, validate=validate)
    raise AlgebraFileError(f"unknown kind {kind!r}")


def read_file(path, validate=True, field=None):
    """``loads`` on the contents of ``path``; an unreadable file, or one
    with a byte outside ASCII, raises AlgebraFileError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AlgebraFileError(f"cannot read {path}: {exc}") from None
    return loads(text, validate=validate, field=field)
