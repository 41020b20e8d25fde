"""stonedual benchmark: one workload, one seed, one closed loop with one client.

    python3 perfbench/run.py --workload tables|elements|cuntz --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the run measures the
end-to-end metrics (ops_per_s, op_p50_ms, op_p99_ms, ok_frac, setup_s,
peak_rss_mb) with no instrumentation.  Op timings are scaled by the ratio
of REF_NOMINAL_S to the run's median time of a reference kernel, raised to
SCALE_EXPONENT, which takes out much of the drift in host speed; the
unscaled values are printed and recorded too.  ops_per_s is ops
completed divided by the summed time of the timed calls.  With --trace 1 it
runs a fixed set of inputs twice per op, plain and with span recorders
around every stonedual layer, and prints the per-layer metrics, the tracing
overhead and how far each layer must slow down to move the end-to-end
metric it maps to by that metric's bound.  Every answer is checked; a
wrong one, or a failure that is not listed in workloads.json as known,
ends the run with exit code 1 and no result.
The last line of stdout is the result as one JSON object.  Result records,
per-op rows and spans are written under perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

from oracles import WrongAnswer
import sensitivity

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# setup_s is the median of this many set-ups.  Each starts from a collected
# heap with the previous set-up's inputs dropped; otherwise the cyclic
# collector, walking the inputs still alive, made later set-ups up to twice
# as slow.  It is not scaled: the reference kernel did not track it.
SETUP_REPEATS = 7
# Run the reference kernel after every this many in-process ops, and this
# many times after each CLI op of tables.
CALIBRATE_EVERY = {"elements": 50, "cuntz": 6}
REF_PER_CLI_OP = 8
# The kernel's median time on the 2-CPU x86_64 host (Python 3.11.7) where the
# benchmark was defined; latencies are reported at that speed.
REF_NOMINAL_S = 0.0023
# Between that host's fast and slow phases the kernel's speed swings about 1.5
# times as far, in log terms, as the workloads' do, so timings are scaled by
# the kernel's speed ratio to this power.  Over four sets of ten runs per
# workload, 2/3 gave the smallest worst-case spread; 1 over-corrected the
# fast phases (spreads up to 0.33), 0 left the phases in (up to 0.40).
SCALE_EXPONENT = 2 / 3
# Chunks of inputs the traced run measures plain and traced.
TRACE_CHUNKS = {"elements": 4, "cuntz": 2}
# A plain run measures at least this many chunks, so that cuntz has more
# than 1000 ops for its p99 (288 ops per chunk).  Set-up generates them,
# which on cuntz also evens out the cost of one chunk's inputs.
MIN_CHUNKS = {"elements": 1, "cuntz": 4}
IMPORT_PAIRS = 5


# ---------------------------------------------------------------------------
# records shared by the workloads


def load_workloads():
    with open(BENCH / "workloads.json") as fh:
        return json.load(fh)


def environment():
    """CPU count, versions, commit and the size of src/ for every record."""
    import numpy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            text = fh.read()
        lines += text.count(b"\n")
        digest.update(text)
    # a checkout without .git must not report the commit of an enclosing repo
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except OSError:
        commit = ""
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit or None, "src_lines": lines,
            "src_sha256": digest.hexdigest()[:16], "machine": platform.machine()}


_Pair = namedtuple("_Pair", ["y", "x"])
_WORDS = [tuple((i * 7 + j * 3) % 3 for j in range(i % 9)) for i in range(700)]


def _tail(short, long):
    if long[: len(short)] == short:
        return long[len(short):]
    return None


def reference_s():
    """Time a fixed piece of pure-Python work shaped like the library's own:
    small function calls, namedtuples, tuple slicing, a dict of tuples and a
    sort.  On a shared host the interpreter's speed drifts by tens of percent
    within minutes; timed between ops, this kernel measures that drift so the
    reported latencies can be taken out of it."""
    t0 = time.perf_counter()
    seen = {}
    for i, w in enumerate(_WORDS):
        a = _Pair(w, _WORDS[i - 1])
        for b in (_Pair(_WORDS[i - 2], w), _Pair(_WORDS[i - 3], _WORDS[i - 5])):
            z = _tail(a.x, b.y)
            if z is not None:
                seen[(a.y + z, b.x)] = a
    sorted(seen)
    return time.perf_counter() - t0


class Clock:
    """Times one op at a time; with a tracer, each op is a root span.
    With `calibrate_every`, the reference kernel runs after every that many
    ops, outside the ops' timings."""

    def __init__(self, known, tracer=None, calibrate_every=0):
        self.known = known
        self.tracer = tracer
        self.every = calibrate_every
        self.rows = []                       # (label, seconds, error class)
        self.ref = []                        # reference kernel times

    def __call__(self, label, fn, *args):
        t0 = time.perf_counter()
        if self.tracer is not None:
            out, exc = self.tracer.run_op(len(self.rows), fn, *args)
        else:
            try:
                out, exc = fn(*args), None
            except Exception as caught:  # the op failed; counted below
                out, exc = None, caught
        dt = time.perf_counter() - t0
        cls = None if exc is None else type(exc).__name__
        check_failure(self.known, label, cls)
        self.rows.append((label, dt, cls))
        if self.every and len(self.rows) % self.every == 0:
            self.ref.append(reference_s())
        return out, exc


def check_failure(known, label, cls):
    """A failed op must be a known failure of its workload, with its class."""
    if cls is not None and known.get(label) != cls:
        raise WrongAnswer("%s failed with %s, which is not a known failure" % (label, cls))


def throughput(rows):
    """Ops completed per second of timed calls."""
    return len(rows) / sum(dt for _, dt, _ in rows)


def end_to_end(rows, ref, setup_s, peak_rss_mb):
    """The end-to-end metrics, with op timings scaled to the nominal speed of
    the reference kernel, and the timings unscaled."""
    scale = (REF_NOMINAL_S / statistics.median(ref)) ** SCALE_EXPONENT
    lat = sorted(dt for _, dt, _ in rows)
    failed = sum(1 for _, _, err in rows if err is not None)
    n = len(lat)
    timing = {
        "ops_per_s": (throughput(rows), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        # nearest rank; over the 34 ops of a tables pass this is the slowest op
        "op_p99_ms": (lat[math.ceil(0.99 * n) - 1] * 1e3, "ms"),
    }
    metrics = {
        "ops_per_s": (timing["ops_per_s"][0] / scale, "1/s"),
        "op_p50_ms": (timing["op_p50_ms"][0] * scale, "ms"),
        "op_p99_ms": (timing["op_p99_ms"][0] * scale, "ms"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {name: value for name, (value, _) in timing.items()}
    raw["speed_scale"] = scale
    return metrics, raw, n, failed


def by_class(rows):
    kinds = {}
    for label, dt, err in rows:
        kinds.setdefault(label, []).append((dt, err))
    out = []
    for label in sorted(kinds):
        lat = sorted(dt for dt, _ in kinds[label])
        errs = {}
        for _, err in kinds[label]:
            if err is not None:
                errs[err] = errs.get(err, 0) + 1
        out.append({"class": label, "ops": len(lat), "p50_ms": statistics.median(lat) * 1e3,
                    "max_ms": lat[-1] * 1e3, "failures": errs})
    return out


def self_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# tables


def tables_setup(args, golden, work):
    """Write the inputs, warm the interpreter and bytecode caches with one
    CLI run, and prove the gate fires on a corrupted golden output."""
    import tables

    rng = random.Random("tables:%d" % args.seed)
    paths = tables.write_inputs(ROOT, work, rng, golden)
    env = tables.cli_env(ROOT)
    op = {"sub": "validate", "label": "i2", "path": paths["i2"]}
    code, out, err, _, _ = tables.run_subprocess(
        [sys.executable, "-m", "stonedual.cli", "finite", "validate", op["path"]], env, ROOT, work)
    if tables.judge(op, code, out, err, golden)[0] != "ok":
        raise WrongAnswer("warm-up op validate i2: %r %r" % (out, err))
    corrupt = {"ops": dict(golden["ops"])}
    corrupt["ops"]["validate i2"] = tables.capture(out + "x", 0)
    if tables.judge(op, code, out, err, corrupt)[0] != "wrong":
        raise RuntimeError("self-check: the gate accepted a corrupted golden output")
    return paths, tables.op_list(paths, rng), env


def run_tables(args):
    import tables

    golden = tables.load_golden(BENCH)
    known = load_workloads()["workloads"]["tables"]["known_failures"]
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT, prefix="tables-")
    try:
        setups, rep_dir = [], None
        for rep in range(SETUP_REPEATS if not args.trace else 1):
            if rep_dir is not None:
                shutil.rmtree(rep_dir)
            rep_dir = tempfile.mkdtemp(dir=work)
            gc.collect()
            t0 = time.perf_counter()
            paths, ops, env = tables_setup(args, golden, rep_dir)
            setups.append(time.perf_counter() - t0)
        if args.trace:
            return trace_tables(args, golden, known, ops, env)
        rows, op_rows, ref, peak_kb = [], [], [], 0
        measured = 0.0
        while not rows or measured < args.seconds:
            for op in ops:
                argv = [sys.executable, "-m", "stonedual.cli", "finite", op["sub"], op["path"]]
                code, out, err, wall, rss = tables.run_subprocess(argv, env, ROOT, rep_dir)
                status, cls, reason = tables.judge(op, code, out, err, golden)
                if status == "wrong":
                    raise WrongAnswer("finite %s %s: %s" % (op["sub"], op["label"], reason))
                label = "%s %s" % (op["sub"], op["label"])
                check_failure(known, label, cls)
                rows.append((label, wall, cls))
                op_rows.append({"command": "stonedual finite %s" % op["sub"],
                                "input": op["label"], "exit": code, "wall_s": wall,
                                "peak_rss_mb": rss / 1024, "error_class": cls,
                                "error": reason or None})
                peak_kb = max(peak_kb, rss)
                measured += wall
                ref += [reference_s() for _ in range(REF_PER_CLI_OP)]
        metrics, raw, n, failed = end_to_end(rows, ref, statistics.median(setups),
                                             peak_kb / 1024)
        return {"metrics": metrics, "unscaled": raw, "attempted": n, "failed": failed,
                "rows": op_rows, "setup_runs_s": setups}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def startup_ms(env):
    """Medians over alternating runs of `python -c pass` and of
    (import stonedual.cli) - (pass), in ms."""
    import tables

    bare, diffs = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        for _ in range(IMPORT_PAIRS):
            base = tables.run_subprocess([sys.executable, "-c", "pass"], env, ROOT, work)[3]
            full = tables.run_subprocess([sys.executable, "-c", "import stonedual.cli"],
                                         env, ROOT, work)[3]
            bare.append(base)
            diffs.append(full - base)
    return statistics.median(bare) * 1e3, statistics.median(diffs) * 1e3


def trace_tables(args, golden, known, ops, env):
    """Each op through cli.main(argv) in this process, plain then traced."""
    import tables
    import tracing
    from stonedual import cli

    tracer = tracing.Tracer()
    plain, traced = Clock(known), Clock(known, tracer)
    completes = set()
    for op in ops:
        argv = ["finite", op["sub"], op["path"]]
        label = "%s %s" % (op["sub"], op["label"])
        for clock in (plain, traced):
            if clock is traced:
                tracer.install()
            try:
                result, _ = clock(label, tables.run_inprocess, cli.main, argv)
            finally:
                tracer.uninstall()
            code, out, err, exc = result
            status, cls, reason = tables.judge(op, code, out, err, golden, exc)
            if status == "wrong":
                raise WrongAnswer("finite %s %s: %s" % (op["sub"], op["label"], reason))
            check_failure(known, label, cls)
            clock.rows[-1] = (label, clock.rows[-1][1], cls)
        if op["sub"] == "complete" and cls is None:
            completes.add(len(traced.rows) - 1)
    layers = tracing.layer_metrics(tracer, completes)
    bare_ms, imp_ms = startup_ms(env)
    layers["cli.import_ms"] = (imp_ms, "ms")
    # a CLI op also pays interpreter start-up and the import, which the
    # in-process timings leave out
    start = {"bare_ms": bare_ms, "import_ms": imp_ms}
    return traced_result(args, tracer, plain, traced, layers, start)


# ---------------------------------------------------------------------------
# elements and cuntz


def inprocess_workload(args):
    t0 = time.perf_counter()
    import elements
    import_s = time.perf_counter() - t0
    known = load_workloads()["workloads"][args.workload]["known_failures"]

    if args.workload == "elements":
        grs = elements.graphs(ROOT)

        def make(index):
            return elements.element_chunk(args.seed, index, grs)

        def run(chunk, clock):
            elements.run_element_chunk(chunk, clock)

        def warm(chunk):
            run(chunk[:200], Clock(known))
            return elements.element_gate_fires(chunk)
    else:
        def make(index):
            return elements.cuntz_chunk(args.seed, index)

        def run(chunk, clock):
            for item in chunk:
                elements.run_cuntz_item(item, clock)

        def warm(chunk):
            small = [item for item in chunk if item[0] <= 4]
            run(small[:8], Clock(known))
            return elements.cuntz_gate_fires(small[0])

    setups, chunks = [], None
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        chunks = None
        gc.collect()
        t0 = time.perf_counter()
        chunks = [make(index) for index in range(MIN_CHUNKS[args.workload])]
        if not warm(chunks[0]):
            raise RuntimeError("self-check: the gate accepted a corrupted expected answer")
        setups.append(time.perf_counter() - t0)
    if args.trace:
        return trace_inprocess(args, known, make, run, chunks)
    clock = Clock(known, calibrate_every=CALIBRATE_EVERY[args.workload])
    index = 0
    while True:
        run(chunks[index] if index < len(chunks) else make(index), clock)
        if (index + 1 >= MIN_CHUNKS[args.workload]
                and sum(dt for _, dt, _ in clock.rows) >= args.seconds):
            break
        index += 1
    metrics, raw, n, failed = end_to_end(clock.rows, clock.ref,
                                         import_s + statistics.median(setups), self_rss_mb())
    return {"metrics": metrics, "unscaled": raw, "attempted": n, "failed": failed,
            "rows": by_class(clock.rows),
            "chunks": index + 1, "setup_runs_s": setups, "import_s": import_s}


def trace_inprocess(args, known, make, run, chunks):
    import tables
    import tracing

    tracer = tracing.Tracer()
    plain, traced = Clock(known), Clock(known, tracer)
    for index in range(TRACE_CHUNKS[args.workload]):
        chunk = chunks[index] if index < len(chunks) else make(index)
        run(chunk, plain)
        tracer.install()
        try:
            run(chunk, traced)
        finally:
            tracer.uninstall()
    layers = tracing.layer_metrics(tracer, set())
    layers["cli.import_ms"] = (startup_ms(tables.cli_env(ROOT))[1], "ms")
    return traced_result(args, tracer, plain, traced, layers)


def traced_result(args, tracer, plain, traced, layers, start=None):
    import tracing

    untraced, traced_rate = throughput(plain.rows), throughput(traced.rows)
    layers["trace.ops_per_s_untraced"] = (untraced, "1/s")
    layers["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    layers["trace.overhead_frac"] = (1 - traced_rate / untraced, "ratio")
    layers["trace.ops"] = (len(traced.rows), "count")
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("%s-seed%d.spans.tsv.gz" % (args.workload, args.seed))
    tracer.write(spans)
    failed = sum(1 for _, _, err in traced.rows if err is not None)
    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    reach = sensitivity.reach(args.workload, load_workloads()["per_layer"]["map"], tracer,
                              plain.rows, traced.rows, bounds, start)
    return {"metrics": layers, "attempted": len(traced.rows), "failed": failed,
            "rows": by_class(traced.rows), "layers": tracing.layer_table(tracer),
            "reach": reach,
            "spans_file": str(spans.relative_to(ROOT)),
            "notes": ["waiting time: none; the code is single-threaded with no queues"]}


# ---------------------------------------------------------------------------


WORKLOADS = {"tables": run_tables, "elements": inprocess_workload, "cuntz": inprocess_workload}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/stonedual/cli.py", "tables/i3.tbl", "graphs/rose2.graph")
               if not (ROOT / p).is_file()]
    if missing:
        print("error: not a stonedual checkout, missing %s" % ", ".join(missing),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    try:
        res = WORKLOADS[args.workload](args)
    except WrongAnswer as exc:
        print("WRONG ANSWER (%s): %s" % (args.workload, exc), file=sys.stderr)
        return 1

    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client", "environment": env}
    record.update(res)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  trace %d  loop: closed, 1 client" % (
        args.workload, args.seed, args.trace))
    print("environment: " + "  ".join("%s=%s" % kv for kv in env.items()))
    if args.trace:
        print(tracing_text(res))
        print(sensitivity.text(res["reach"]))
    else:
        print("fail_frac: %.6f  (%d failed / %d attempted)" % (
            res["failed"] / res["attempted"], res["failed"], res["attempted"]))
    for name, (value, unit) in res["metrics"].items():
        print("%-44s %14.6f %s" % (name, value, unit))
    for name, value in res.get("unscaled", {}).items():
        print("unscaled %-35s %14.6f" % (name, value))
    for note in res.get("notes", []):
        print("note: " + note)
    print(json.dumps({"correct": True, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": record["metrics"]}))
    return 0


def tracing_text(res):
    lines = ["%-12s %10s %12s  %s" % ("layer", "calls", "self_s", "failures by class")]
    for row in res["layers"]:
        lines.append("%-12s %10d %12.6f  %s" % (
            row["layer"], row["calls"], row["self_s"],
            ", ".join("%s=%d" % kv for kv in sorted(row["failures"].items())) or "-"))
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
