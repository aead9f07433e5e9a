"""Per-layer spans for altchain, installed from outside the program.

``Tracer.install`` replaces every public function of the package's modules
with a wrapper, both as a module attribute and wherever another module
bound it with ``from ... import``, and wraps each ``verify.REGISTRY`` suite.
A timed wrapper records calls, inclusive time and self time (inclusive time
minus the time of the spans it called); hot leaf functions are only
counted.  A few wrappers also record sizes, such as matrix cells or cochain
supports, outside the timed interval.  Spans stay in memory as per-name and
per-edge totals and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("permutations", "complex_model", "alt_chains", "cochain_algebra",
           "integer_homology", "homotopy_prism", "verify", "cli")

# called millions of times with trivial bodies: counted, not timed
COUNT_ONLY = frozenset({
    "permutations.act", "permutations.sign", "permutations.induced_face_perm",
    "permutations.enumerate_group", "complex_model.face",
    "alt_chains.canonicalize", "alt_chains.sorting_sign",
})
ALIASES = {
    "cli.main": "cli",
    "cochain_algebra.cochain_to_json": "cochain_algebra.cochain_io",
    "cochain_algebra.cochain_from_json": "cochain_algebra.cochain_io",
}
HOOKS_SPAN = "trace.hooks"


def _generators(tracer, index):
    tracer.add("complex_model.generators",
               sum(index.count(n) for n in range(index.max_degree + 1)))


def _presentation(tracer, pres):
    tracer.add("alt_chains.presentation_generators",
               sum(pres.generator_count(n) for n in range(pres.max_degree + 1)))
    tracer.add("alt_chains.presentation_dense_cells",
               sum(len(b) * len(b[0]) for b in pres.boundaries if b))


def _snf_input(tracer, args):
    M = args[0]
    if hasattr(M, "entries"):
        cells, nnz = M.rows * M.cols, len(M.entries)
    else:
        cells = len(M) * len(M[0]) if M else 0
        nnz = sum(1 for row in M for v in row if v)
    tracer.add("integer_homology.smith_normal_form.cells", cells)
    tracer.add("integer_homology.smith_normal_form.nonzeros", nnz)


def _sparse_input(tracer, args):
    tracer.add("integer_homology.sparse_diagonalize.nnz_in", len(args[0].entries))


def _support_in(tracer, args):
    tracer.add("cochain_algebra.alternative_maker.support_in", len(args[0].values))


def _support_out(tracer, result):
    tracer.add("cochain_algebra.alternative_maker.support_out", len(result.values))


def _suite_cases(tracer, result):
    tracer.add("verify.cases", result[0])


HOOKS = {  # span name -> (before(tracer, args), after(tracer, result))
    "complex_model.enumerate_generators": (None, _generators),
    "alt_chains.alt_chain_complex": (None, _presentation),
    "integer_homology.smith_normal_form": (_snf_input, None),
    "integer_homology.sparse_diagonalize": (_sparse_input, None),
    "cochain_algebra.alternative_maker": (_support_in, _support_out),
}


class Tracer:
    def __init__(self):
        self.spans: dict = {}     # name -> [calls, inclusive_s, self_s]
        self.edges: dict = {}     # (parent, child) -> inclusive_s
        self.counts: dict = {}    # counter name -> total
        self._stack: list = []    # open spans: [name, time of child spans]
        self._undo: list = []

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str) -> list:
        return self.spans.get(name, [0, 0.0, 0.0])

    def counted(self, name: str, fn):
        key = f"{name}.calls"
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hook(self, hook, value) -> None:
        # size bookkeeping is charged to its own span, not to the caller
        start = time.perf_counter()
        hook(self, value)
        spent = time.perf_counter() - start
        stat = self.spans.setdefault(HOOKS_SPAN, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += spent
        stat[2] += spent
        if self._stack:
            self._stack[-1][1] += spent

    def timed(self, name: str, fn, before=None, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0.0) + duration
            if after is not None:
                self._hook(after, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {short: sys.modules[f"altchain.{short}"] for short in MODULES}
        wrapped = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = ALIASES.get(f"{short}.{attr}", f"{short}.{attr}")
                if name in COUNT_ONLY:
                    wrapper = self.counted(name, obj)
                else:
                    wrapper = self.timed(name, obj, *HOOKS.get(name, (None, None)))
                wrapped[id(obj)] = (obj, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "altchain" and not modname.startswith("altchain."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        verify = modules["verify"]
        self._undo.append((verify, "REGISTRY", verify.REGISTRY))
        verify.REGISTRY = tuple(
            (sid, statement, self.timed(f"verify.suite.{sid}", fn, after=_suite_cases))
            for sid, statement, fn in verify.REGISTRY)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, obj = self._undo.pop()
            setattr(mod, attr, obj)

    def dump(self, path, jobs: list) -> None:
        """Write the spans: per-job wall times, per-name and per-edge totals."""
        payload = {
            "jobs": jobs,
            "spans": {name: {"calls": c, "inclusive_s": i, "self_s": s}
                      for name, (c, i, s) in sorted(self.spans.items())},
            "edges": [{"parent": p, "child": c, "inclusive_s": t}
                      for (p, c), t in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
