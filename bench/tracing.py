"""Per-layer tracing for the braceflow benchmark, from outside the program.

``SpanTracer`` replaces public functions and methods of each layer with
wrappers that record a span (name, start, end, parent, job).  A function
imported by name elsewhere (``limits`` binds ``to_brace``, ``brace`` and
``prelie`` bind ``span``, the package ``__init__`` re-exports most
names) is replaced in every ``braceflow`` module that bound it.  Spans
are kept in flat arrays and written once, by ``write``.  A span's self
time is its duration minus the durations of its child spans.

``CallCounter`` counts calls to the hottest constructors (``Vec``,
``Fp``, ``ScalarField.of``) in a pass of its own, so that their cost does
not inflate any span's self time.
"""

import gzip
import sys
import time

from array import array

# layer -> traced public names, as module.function or module.Class.method
LAYERS = {
    "flows": ("flows.to_brace", "flows.circ", "flows.star", "flows.omega",
              "flows.w_map", "flows.exp_L"),
    "linalg": ("linalg.polynomial_curve_coefficients", "linalg.span"),
    "prelie": ("prelie.PreLieAlgebra.multiply", "prelie.check_prelie_identity",
               "prelie.nilpotency_index"),
    "brace": ("brace.GradedBrace.star", "brace.SymmetricMap.apply",
              "brace.SymmetricMap.apply_diagonal", "brace.check_left_brace",
              "brace.check_group", "brace.check_fbrace", "brace.radical_chains"),
    "limits": ("limits.dot", "limits.to_prelie"),
    "fileio": ("fileio.loads", "fileio.dumps"),
    "bch": ("bch.verify_flows_bch",),
    "free_expansion": ("free_expansion.doubling_matrix",),
    "cli": ("cli.main",),
}

# metric name -> constructor counted in the counting pass
COUNTED = {
    "scalars.ScalarField.of": "scalars.ScalarField.of",
    "scalars.Fp": "scalars.Fp.__init__",
    "linalg.Vec": "linalg.Vec.__init__",
}

# traced name -> the arguments that identify a call, for repeat_frac
REPEAT_KEYS = {
    "flows.w_map": lambda alg, a: (id(alg), a.entries),
    "brace.GradedBrace.star": lambda self, a, b: (id(self), a.entries, b.entries),
}


def _resolve(dotted):
    """(owner, attribute, original) for braceflow.<dotted>."""
    parts = dotted.split(".")
    owner = sys.modules["braceflow." + parts[0]]
    for name in parts[1:-1]:
        owner = getattr(owner, name)
    return owner, parts[-1], getattr(owner, parts[-1])


class _Patches:
    """Replace callables and put the originals back on ``restore``."""

    def __init__(self):
        self._undo = []

    def replace(self, dotted, make_wrapper):
        owner, attr, orig = _resolve(dotted)
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [(mod, name) for mod_name, mod in list(sys.modules.items())
                       if mod_name.split(".")[0] == "braceflow"
                       for name, val in vars(mod).items() if val is orig]
        for target, name in targets:
            self._undo.append((target, name, orig))
            setattr(target, name, wrapper)

    def restore(self):
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()


class CallCounter:
    """Counts calls to the ``COUNTED`` constructors while active."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTED, 0)
        self._patches = _Patches()

    def __enter__(self):
        for metric, dotted in COUNTED.items():
            def make(orig, metric=metric):
                counts = self.counts

                def counting(*args, **kwargs):
                    counts[metric] += 1
                    return orig(*args, **kwargs)
                return counting
            self._patches.replace(dotted, make)
        return self

    def __exit__(self, *exc):
        self._patches.restore()


class SpanTracer:
    """Records one span per call of every name in ``LAYERS`` while active."""

    def __init__(self):
        self.names = [name for names in LAYERS.values() for name in names]
        self.layer_of = {name: layer for layer, names in LAYERS.items() for name in names}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.current_job = -1
        self.repeats = {name: [0, 0] for name in REPEAT_KEYS}  # [calls, repeats]
        self._seen = {name: set() for name in REPEAT_KEYS}
        self._stack = [-1]
        self._patches = _Patches()

    def begin_job(self, index):
        """Spans of one job share its index; repeats are counted per job."""
        self.current_job = index
        for seen in self._seen.values():
            seen.clear()

    def _wrap(self, ident, name):
        clock = time.perf_counter
        stack, name_id, start, end = self._stack, self.name_id, self.start, self.end
        parent, job = self.parent, self.job
        key_of = REPEAT_KEYS.get(name)
        seen, tally = self._seen.get(name), self.repeats.get(name)

        def make(orig):
            def traced(*args, **kwargs):
                if key_of is not None:
                    key = key_of(*args, **kwargs)
                    tally[0] += 1
                    if key in seen:
                        tally[1] += 1
                    else:
                        seen.add(key)
                index = len(start)
                name_id.append(ident)
                parent.append(stack[-1])
                job.append(self.current_job)
                end.append(0.0)
                stack.append(index)
                start.append(clock())
                try:
                    return orig(*args, **kwargs)
                finally:
                    end[index] = clock()
                    stack.pop()
            return traced
        return make

    def __enter__(self):
        for ident, name in enumerate(self.names):
            self._patches.replace(name, self._wrap(ident, name))
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def summary(self):
        """Per traced name: calls and self seconds; per layer: self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            ident = self.name_id[i]
            calls[ident] += 1
            self_s[ident] += self.end[i] - self.start[i] - child[i]
        per_name = {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for name, (_, s) in per_name.items():
            per_layer[self.layer_of[name]] += s
        return per_name, per_layer

    def write(self, path):
        """All spans as gzipped tab-separated rows: job, name, start, end,
        parent (the row index of the enclosing span, -1 for none)."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("job\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.job[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")
