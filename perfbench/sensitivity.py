"""How far must a layer slow down before an end-to-end metric moves by its bound?

The traced run times every op twice on the same inputs: plain, and with
spans around the layers.  For each entry of the layer map in workloads.json
that belongs to the run's workload, `reach` takes the time the per-layer
metric stands for in each op (from the spans, rescaled to the plain timing
of that op), multiplies it by a factor f, and finds the smallest f at which
the mapped end-to-end metric, recomputed from the plain latencies, is worse
than before by its bound from BENCHMARK.json.  A metric that no slowdown up
to MAX_FACTOR moves that far is reported as out of reach.
"""

import math

import numpy as np

MAX_FACTOR = 100.0

# The time each per-layer metric stands for in an op: ("self", layer) is the
# layer's self time; ("span", names) the duration of the outermost spans with
# one of the names; ("prefix", prefix, other) the self time of spans whose
# function name starts with prefix and not with other, as in
# tracing.layer_metrics; ("import",) the import a CLI op pays.  Counts stand
# for the time of the function they count.
TIME_OF = {
    "cli.import_ms": ("import",),
    "cli.self_s": ("self", "cli"),
    "finitesgp.self_s": ("self", "finitesgp"),
    "finitesgp.construct_s": ("span", ("finitesgp.MulTable.from_text",
                                       "finitesgp.MulTable.__init__")),
    "finitesgp.meet_table_s": ("span", ("finitesgp.MulTable.meet_table",)),
    "finitesgp.join_table_s": ("span", ("finitesgp.MulTable.join_table",)),
    "finitesgp.predicates_s": ("span", ("finitesgp.predicates",)),
    "finitesgp.ideals_s": ("span", ("finitesgp.tightly_closed_ideals",)),
    "filtercomp.self_s": ("self", "filtercomp"),
    "filtercomp.lenz_congruence_s": ("span", ("filtercomp.lenz_congruence",)),
    "filtercomp.fc_semigroup_s": ("span", ("filtercomp.fc_semigroup",)),
    "filtercomp.distributive_completion.calls_per_op": (
        "span", ("filtercomp.distributive_completion",)),
    "filtercomp.orthogonalize_poly_s": ("span", ("filtercomp.orthogonalize_poly",)),
    "duality.self_s": ("self", "duality"),
    "duality.local_bisections.count": ("span", ("duality.local_bisections",)),
    "thompson.cuntz_normalize_s": ("span", ("thompson.cuntz_normalize",)),
    "thompson.cuntz_normalize.calls": ("span", ("thompson.cuntz_normalize",)),
    "thompson.normalize.keep_ratio": ("span", ("thompson.cuntz_normalize",)),
    "thompson.tp_mul_s": ("span", ("thompson.tp_mul",)),
    "polycyclic.ext_s": ("prefix", "polycyclic.ext", None),
    "polycyclic.ext_mul.calls": ("prefix", "polycyclic.ext", None),
    "polycyclic.poly_s": ("prefix", "polycyclic.", "polycyclic.ext"),
    "graphisg.self_s": ("self", "graphisg"),
    "words.self_s": ("self", "words"),
}

TIMED = {"ops_per_s": "higher", "op_p50_ms": "lower", "op_p99_ms": "lower"}
NOT_TIMED = {
    "ok_frac": "any failure outside known_failures ends the run with exit 1",
    "peak_rss_mb": "memory, measured directly; not simulated",
}


def metric(name, lat):
    if name == "ops_per_s":
        return len(lat) / lat.sum()
    if name == "op_p50_ms":
        return float(np.median(lat)) * 1e3
    ordered = np.sort(lat)
    return float(ordered[math.ceil(0.99 * len(ordered)) - 1]) * 1e3


def worse_by(name, base, value):
    if TIMED[name] == "higher":
        return (base - value) / base
    return (value - base) / base


def per_op_time(spec, tracer, n_ops, start):
    """Seconds of the op's traced time that `spec` stands for, per op."""
    if spec[0] == "import":
        return np.full(n_ops, start["import_ms"] / 1e3)
    name, parent, _, self_t = tracer.span_arrays()
    dur = np.frombuffer(tracer.t1, dtype=np.float64) - np.frombuffer(tracer.t0, dtype=np.float64)
    ops = np.frombuffer(tracer.op, dtype=np.int64)
    names = tracer.names
    if spec[0] == "self":
        ids = [i for i, nm in enumerate(names) if nm.split(".", 1)[0] == spec[1]]
        mask, weight = np.isin(name, ids), self_t
    elif spec[0] == "prefix":
        ids = [i for i, nm in enumerate(names)
               if nm.startswith(spec[1]) and not (spec[2] and nm.startswith(spec[2]))]
        mask, weight = np.isin(name, ids), self_t
    else:
        ids = [tracer.name_ix[nm] for nm in spec[1] if nm in tracer.name_ix]
        mine = np.isin(name, ids)
        up = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        mask, weight = mine & ~np.isin(up, ids), dur
    keep = mask & (ops >= 0)
    return np.bincount(ops[keep], weights=weight[keep], minlength=n_ops)[:n_ops]


def reach(workload, layer_map, tracer, plain_rows, traced_rows, bounds, start=None):
    """One entry per (per-layer metric, end-to-end metric) pair of the map
    on this workload: the layer's share of plain time and the slowdown
    factor that moves the end-to-end metric by its bound."""
    plain = np.array([dt for _, dt, _ in plain_rows])
    traced = np.array([dt for _, dt, _ in traced_rows])
    if start is not None:
        # CLI ops: add interpreter start-up and the import to each op
        plain = plain + (start["bare_ms"] + start["import_ms"]) / 1e3
    out = []
    for layer_metric, entry in layer_map.items():
        if entry["workload"] != workload:
            continue
        for name in entry["moves"]:
            row = {"layer_metric": layer_metric, "metric": name}
            if name in NOT_TIMED:
                row["how"] = NOT_TIMED[name]
                out.append(row)
                continue
            part = per_op_time(TIME_OF[layer_metric], tracer, len(plain), start)
            if TIME_OF[layer_metric][0] != "import":
                # traced time -> plain time of the same op
                part = part * np.divide(plain, traced, out=np.zeros_like(plain),
                                        where=traced > 0)
            row["share"] = float(part.sum() / plain.sum())
            row["slowdown"] = _factor(name, plain, part, bounds[name])
            out.append(row)
    return out


def _factor(name, plain, part, bound):
    base = metric(name, plain)

    def moved(f):
        return worse_by(name, base, metric(name, plain + part * (f - 1))) > bound

    if not moved(MAX_FACTOR):
        return None
    lo, hi = 1.0, MAX_FACTOR
    while hi - lo > 0.01:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if moved(mid) else (mid, hi)
    return hi


def text(rows):
    lines = ["%-48s %-12s %8s  %s" % ("per-layer metric", "moves", "share",
                                      "slowdown that moves it by its bound")]
    for row in rows:
        if "how" in row:
            lines.append("%-48s %-12s %8s  %s" % (row["layer_metric"], row["metric"], "-",
                                                  row["how"]))
        else:
            f = row["slowdown"]
            lines.append("%-48s %-12s %8.3f  %s" % (
                row["layer_metric"], row["metric"], row["share"],
                "x%.2f" % f if f is not None else "none up to x%g" % MAX_FACTOR))
    return "\n".join(lines)
