"""In-memory span recorder installed around crnf's public layer functions.

The benchmark wraps each layer function from the outside: it rebinds every
name under which a crnf module holds the function (so `from .x import f`
copies are caught too), or the attribute on the class for methods, and puts
the originals back afterwards.  Nothing inside the package changes.

A span is (name, start, end, parent id, op id).  Spans stay in memory while
the run goes on and are written out when it ends.  A layer's self time is
its span's duration minus the durations of its direct children; the program
is single-threaded, so children of one span never overlap.
"""

import functools
import json
import sys
from time import perf_counter


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1
        self.active = False
        self.weight_keys = []
        self.bytes_in = 0
        self.bytes_out = 0

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def op(self, fn, *args):
        """Run one benchmark op as a root span named bench.op; ops are
        numbered in the order they run.  Calls made outside ops, such as the
        benchmark's own output checks, are not recorded."""
        self.op_id += 1
        self.active = True
        try:
            return self.wrap("bench.op", fn)(*args)
        finally:
            self.active = False

    def layer_stats(self):
        """{name: (calls, total_s, self_s)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (calls + 1, total + (t1 - t0),
                           self_s + (t1 - t0 - child[i]))
        return stats

    def count_under(self, name, ancestors):
        """Number of `name` spans that have a span named in `ancestors`
        somewhere above them."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0:
                if self.spans[p][0] in ancestors:
                    n += 1
                    break
                p = self.spans[p][3]
        return n

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "op": op}) + "\n")


def _note_weight_key(rec, args, result):
    rec.weight_keys.append(tuple(args[:3]))


def _note_bytes_in(rec, args, result):
    rec.bytes_in += len(args[0])


def _note_bytes_out(rec, args, result):
    rec.bytes_out += len(result)


def targets():
    """(layer name, owner, attribute, hook) for every wrapped function.

    Imported lazily: the benchmark imports crnf only after it has timed the
    import as part of set-up.
    """
    from crnf import (cli, equivalence, fileformat, hypersurface, linsolve,
                      normalize, series, symmetry, transform)
    FormalMap, Hypersurface = transform.FormalMap, hypersurface.Hypersurface
    return [
        ("cli.main", cli, "main", None),
        ("normalize.t_normalize", normalize, "t_normalize", None),
        ("normalize.rigid_normalize", normalize, "rigid_normalize", None),
        ("normalize.nt_normalize", normalize, "nt_normalize", None),
        ("normalize.check", normalize, "check", None),
        ("normalize.weight_system", normalize, "weight_system",
         _note_weight_key),
        ("linsolve.invert", linsolve, "invert", None),
        ("transform.pushforward_series", transform, "pushforward_series",
         None),
        ("transform.FormalMap.compose", FormalMap, "compose", None),
        ("transform.FormalMap.inverse", FormalMap, "inverse", None),
        ("series.restrict_to_M", series, "restrict_to_M", None),
        ("series.to_complex_basis", series, "to_complex_basis", None),
        ("series.to_real_basis", series, "to_real_basis", None),
        ("hypersurface.Hypersurface.validate", Hypersurface, "validate",
         None),
        ("hypersurface.Hypersurface.normal_coordinates", Hypersurface,
         "normal_coordinates", None),
        ("symmetry.classify_aut", symmetry, "classify_aut", None),
        ("equivalence.tube_equivalent", equivalence, "tube_equivalent", None),
        ("fileformat.parse_series", fileformat, "parse_series",
         _note_bytes_in),
        ("fileformat.parse_map", fileformat, "parse_map", _note_bytes_in),
        ("fileformat.serialize_series", fileformat, "serialize_series",
         _note_bytes_out),
        ("fileformat.serialize_map", fileformat, "serialize_map",
         _note_bytes_out),
    ]


def install(rec):
    """Wrap every target; return the list that `restore` takes to undo it."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "crnf" or name.startswith("crnf."))]
    saved = []
    for name, owner, attr, hook in targets():
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                new = classmethod(rec.wrap(name, orig.__func__, hook))
            else:
                new = rec.wrap(name, orig, hook)
            saved.append((owner, attr, orig))
            setattr(owner, attr, new)
            continue
        orig = getattr(owner, attr)
        new = rec.wrap(name, orig, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    saved.append((mod, key, orig))
                    setattr(mod, key, new)
    return saved


def restore(saved):
    for owner, attr, orig in reversed(saved):
        setattr(owner, attr, orig)
