"""Span recorder installed around stonedual from the outside.

`Tracer.install` wraps the module-level functions of every stonedual layer
module, rebinding each name under which another stonedual module imported
them, plus the MulTable constructor and the first meet/join call that builds
an order table.  Every wrapped call is counted.  A span (name, start, end,
parent span, op id) is recorded when a call crosses from one layer into
another, and always for the functions that the per-layer metrics name, so
the hot arithmetic inside one layer adds a counter increment, not a span.
Spans stay in flat arrays until `write`.  Self time is a span's duration
minus the time its child spans cover.  `uninstall` restores every binding.
"""

import gzip
import importlib
import json
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("words", "polycyclic", "graphisg", "thompson",
          "finitesgp", "filtercomp", "duality", "cli")

# Always a span, whatever layer the caller is in: the per-layer metrics
# time these functions on their own.
PROBES = {
    "words.prefix_covers_depth",
    "thompson.cuntz_normalize",
    "thompson.tp_mul",
    "filtercomp.orthogonalize_poly",
    "filtercomp.lenz_congruence",
    "filtercomp.fc_semigroup",
    "filtercomp.distributive_completion",
    "finitesgp.predicates",
    "finitesgp.tightly_closed_ideals",
    "finitesgp.MulTable.__init__",
    "finitesgp.MulTable.from_text",
    "duality.local_bisections",
}

# Argument checks, sort keys, zero tests, zero constructors and inverses run
# millions of times per cuntz op and do no work of their own: a wrapper would
# cost more than their body, so their time stays with the caller.
SKIP = {
    "words._strip_prefix",
    "words._check_same_alphabet",
    "polycyclic._check_n",
    "polycyclic._check_ext",
    "graphisg._check_graph",
    "thompson._check_pair",
    "thompson._part_key",
    "cli._b",
} | {"%s.%s_%s" % (mod, kind, op)
     for mod, kind in (("polycyclic", "poly"), ("polycyclic", "ext"), ("graphisg", "gisg"))
     for op in ("zero", "is_zero", "inv", "is_idempotent")}


def _on_normalize(stats, args, result):
    if result is not None:
        stats["normalize.parts_in"] += len(args[0].parts)
        stats["normalize.parts_out"] += len(result.parts)


def _on_bisections(stats, args, result):
    if result is not None:
        stats["local_bisections.count"] += len(result)


def _on_check_size(stats, args, result):
    # the completion registers each new compatible ideal of Q here, so the
    # last count it passes is |F|, or the count that hit the size limit
    if len(args) > 1 and args[1] == "ideal semigroup":
        stats["F_elements_max"] = max(stats["F_elements_max"], args[0])


HOOKS = {
    "thompson.cuntz_normalize": _on_normalize,
    "duality.local_bisections": _on_bisections,
    "finitesgp._check_size": _on_check_size,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ix = {}
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = {}                 # span id -> exception class name
        self.stack = []
        self.layer_stack = ["bench"]
        self.calls = Counter()        # qualified function name -> calls
        self.fails = Counter()        # (qualified name, exception class)
        self.stats = Counter()
        self.op_id = -1
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _ix(self, name):
        ix = self.name_ix.get(name)
        if ix is None:
            ix = self.name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, name_ix, layer):
        sid = len(self.t0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_ix)
        self.op.append(self.op_id)
        self.t1.append(0.0)
        self.stack.append(sid)
        self.layer_stack.append(layer)
        self.t0.append(time.perf_counter())
        return sid

    def close(self, sid, exc=None):
        self.t1[sid] = time.perf_counter()
        del self.stack[-1]
        del self.layer_stack[-1]
        if exc is not None:
            self.err[sid] = type(exc).__name__

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op as a root span; returns (result, exception)."""
        self.op_id = op_id
        sid = self.open(self._ix("op"), "bench")
        try:
            out = fn(*args)
        except Exception as exc:  # the op failed; the caller counts it
            self.close(sid, exc)
            return None, exc
        self.close(sid)
        return out, None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, qual, layer):
        tracer = self
        ix = self._ix(qual)
        always = qual in PROBES
        hook = HOOKS.get(qual)
        calls, fails, stats = self.calls, self.fails, self.stats
        layer_stack = self.layer_stack

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            result = None
            if not always and layer_stack[-1] == layer:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    fails[(qual, type(exc).__name__)] += 1
                    raise
                finally:
                    if hook is not None:
                        hook(stats, args, result)
                return result
            sid = tracer.open(ix, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(sid, exc)
                fails[(qual, type(exc).__name__)] += 1
                raise
            finally:
                if hook is not None:
                    hook(stats, args, result)
            tracer.close(sid)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _table_fill(self, method, attr, qual):
        """meet/join fill a whole table on first use: span that call only."""
        tracer = self
        ix = self._ix(qual)

        def wrapper(table, a, b):
            if getattr(table, attr) is not None:
                return method(table, a, b)
            sid = tracer.open(ix, "finitesgp")
            try:
                out = method(table, a, b)
            except BaseException as exc:
                tracer.close(sid, exc)
                raise
            tracer.close(sid)
            return out

        return wrapper

    def install(self):
        mods = {name: importlib.import_module("stonedual." + name) for name in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for key, val in list(vars(mod).items()):
                if not isinstance(val, types.FunctionType):
                    continue
                if val.__module__ != mod.__name__:
                    continue
                qual = "%s.%s" % (layer, key)
                if qual in SKIP:
                    continue
                originals[id(val)] = (val, self._wrap(val, qual, layer))
        for mod in mods.values():
            for key, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, key, val))
                    setattr(mod, key, hit[1])
        table = mods["finitesgp"].MulTable
        init = table.__dict__["__init__"]
        from_text = table.__dict__["from_text"]
        meet = table.__dict__["meet"]
        join = table.__dict__["join"]
        self._saved += [(table, "__init__", init), (table, "from_text", from_text),
                        (table, "meet", meet), (table, "join", join)]
        table.__init__ = self._wrap(init, "finitesgp.MulTable.__init__", "finitesgp")
        table.from_text = classmethod(self._wrap(
            from_text.__func__, "finitesgp.MulTable.from_text", "finitesgp"))
        table.meet = self._table_fill(meet, "_meet", "finitesgp.MulTable.meet_table")
        table.join = self._table_fill(join, "_join", "finitesgp.MulTable.join_table")

    def uninstall(self):
        for owner, key, val in reversed(self._saved):
            setattr(owner, key, val)
        self._saved = []

    # -- results ----------------------------------------------------------

    def span_arrays(self):
        """(names per span, duration, self time) as numpy arrays."""
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = t1 - t0
        covered = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(covered, parent[has], dur[has])
        name = np.frombuffer(self.name, dtype=np.int64)
        return name, parent, dur, dur - covered

    def write(self, path):
        """All spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.t0)):
                out.write("%d\t%d\t%d\t%d\t%.9f\t%.9f\t%s\n" % (
                    sid, self.parent[sid], self.name[sid], self.op[sid],
                    self.t0[sid], self.t1[sid], self.err.get(sid, "")))


def _layer(name):
    return "bench" if name == "op" else name.split(".", 1)[0]


def layer_table(tracer):
    """Per layer: wrapped calls, self time, and the exceptions that left the
    layer (raised out of a span whose parent is in another layer), by class."""
    name, _, _, self_t = tracer.span_arrays()
    self_by_name = np.bincount(name, weights=self_t, minlength=len(tracer.names))
    rows = {layer: {"layer": layer, "calls": 0, "self_s": 0.0, "failures": Counter()}
            for layer in ("bench",) + LAYERS}
    for ix, nm in enumerate(tracer.names):
        rows[_layer(nm)]["self_s"] += float(self_by_name[ix])
    for qual, count in tracer.calls.items():
        rows[_layer(qual)]["calls"] += count
    for sid, cls in tracer.err.items():
        layer = _layer(tracer.names[tracer.name[sid]])
        up = tracer.parent[sid]
        if up < 0 or _layer(tracer.names[tracer.name[up]]) != layer:
            rows[layer]["failures"][cls] += 1
    return [dict(row, failures=dict(row["failures"])) for row in rows.values()]


def layer_metrics(tracer, complete_ops):
    """The per-layer metrics; `complete_ops` holds the op ids of successful
    `finite complete` runs."""
    name, parent, dur, self_t = tracer.span_arrays()
    names = tracer.names
    n = len(names)
    dur_by = np.bincount(name, weights=dur, minlength=n)
    self_by = np.bincount(name, weights=self_t, minlength=n)
    ix = tracer.name_ix

    def total(qual):
        return float(dur_by[ix[qual]]) if qual in ix else 0.0

    out = {}
    for row in layer_table(tracer):
        if row["layer"] == "bench":
            out["bench.self_s"] = (row["self_s"], "s")
            continue
        out[row["layer"] + ".self_s"] = (row["self_s"], "s")
        out[row["layer"] + ".calls"] = (row["calls"], "count")
        out[row["layer"] + ".failures"] = (sum(row["failures"].values()), "count")

    construct = total("finitesgp.MulTable.from_text")
    if "finitesgp.MulTable.__init__" in ix:
        inner = ix.get("finitesgp.MulTable.from_text", -1)
        mine = name == ix["finitesgp.MulTable.__init__"]
        top = mine & ((parent < 0) | (name[np.maximum(parent, 0)] != inner))
        construct += float(dur[top].sum())
    out["finitesgp.construct_s"] = (construct, "s")
    out["finitesgp.meet_table_s"] = (total("finitesgp.MulTable.meet_table"), "s")
    out["finitesgp.join_table_s"] = (total("finitesgp.MulTable.join_table"), "s")
    out["finitesgp.predicates_s"] = (total("finitesgp.predicates"), "s")
    out["finitesgp.ideals_s"] = (total("finitesgp.tightly_closed_ideals"), "s")

    out["filtercomp.lenz_congruence_s"] = (total("filtercomp.lenz_congruence"), "s")
    out["filtercomp.fc_semigroup_s"] = (total("filtercomp.fc_semigroup"), "s")
    out["filtercomp.F_elements_max"] = (tracer.stats["F_elements_max"], "count")
    per_op = 0.0
    if complete_ops and "filtercomp.distributive_completion" in ix:
        ops = np.frombuffer(tracer.op, dtype=np.int64)
        mine = ops[name == ix["filtercomp.distributive_completion"]]
        per_op = sum(int((mine == op).sum()) for op in complete_ops) / len(complete_ops)
    out["filtercomp.distributive_completion.calls_per_op"] = (per_op, "calls/op")
    out["filtercomp.orthogonalize_poly_s"] = (total("filtercomp.orthogonalize_poly"), "s")

    out["duality.local_bisections.count"] = (tracer.stats["local_bisections.count"], "count")

    out["thompson.cuntz_normalize_s"] = (total("thompson.cuntz_normalize"), "s")
    out["thompson.cuntz_normalize.calls"] = (tracer.calls["thompson.cuntz_normalize"], "count")
    parts_in = tracer.stats["normalize.parts_in"]
    keep = tracer.stats["normalize.parts_out"] / parts_in if parts_in else 0.0
    out["thompson.normalize.keep_ratio"] = (keep, "ratio")
    out["thompson.normalize.parts_in"] = (parts_in, "count")
    out["thompson.tp_mul_s"] = (total("thompson.tp_mul"), "s")

    ext = poly = 0.0
    for qual, k in ix.items():
        if qual.startswith("polycyclic."):
            if qual.startswith("polycyclic.ext"):
                ext += float(self_by[k])
            else:
                poly += float(self_by[k])
    out["polycyclic.ext_s"] = (ext, "s")
    out["polycyclic.ext_mul.calls"] = (tracer.calls["polycyclic.ext_mul"], "count")
    out["polycyclic.poly_s"] = (poly, "s")

    out["words.prefix_covers_depth.failures"] = (
        sum(c for (qual, _), c in tracer.fails.items() if qual == "words.prefix_covers_depth"),
        "count")
    out["trace.spans"] = (len(dur), "count")
    return out
