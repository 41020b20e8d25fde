"""The `tables` workload: `stonedual finite <sub> <file>` as users run it.

Each op is one CLI process, timed from spawn to exit, interpreter start-up
included.  The table files are the repository's `tables/` corpus plus I(4),
I(5) and a seeded relabelling of I(4), written at set-up by a generator of
the benchmark's own.  Answers are checked against golden stdout captured at
the commit that defined the benchmark and against facts about I(k) that do
not depend on that capture.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import threading
import time

import numpy as np

SUBS = ("validate", "predicates", "congfree", "simplifying",
        "complete", "dualize", "classify", "ideals")
CORPUS = ("chain2", "i2", "i3")
# the one refusal that is the documented answer: dualize needs a Boolean table
EXPECTED_ERRORS = {("dualize", "chain2")}
OP_TIMEOUT_S = 150


def sim_size(k):
    """|I(k)| = sum over j of C(k, j)^2 j!."""
    return sum(math.comb(k, j) ** 2 * math.factorial(j) for j in range(k + 1))


def sim_table(k):
    """The symmetric inverse monoid I(k) in the library's element order:
    partial injections as image tuples (-1 undefined), sorted; f*g applies g
    first.  Returns (table, zero, identity, names).  Built row by row: the
    CLI processes inherit this process's peak RSS, which must stay small."""
    maps = []
    for size in range(k + 1):
        for dom in itertools.combinations(range(k), size):
            for img in itertools.permutations(range(k), size):
                f = [-1] * k
                for p, q in zip(dom, img):
                    f[p] = q
                maps.append(tuple(f))
    maps.sort()
    m = len(maps)
    arr = np.array(maps, dtype=np.int64)
    padded = np.concatenate([arr, np.full((m, 1), -1)], axis=1)
    powers = (k + 1) ** np.arange(k)
    keys = (arr + 1) @ powers
    order = np.argsort(keys)
    sorted_keys = keys[order]
    table = np.empty((m, m), dtype=np.int32)
    for f in range(m):
        # (f*g)[p] = f[g[p]], with index -1 reading the padding column
        table[f] = order[np.searchsorted(sorted_keys, (padded[f][arr] + 1) @ powers)]
    index = {f: i for i, f in enumerate(maps)}
    names = ["[%s]" % ",".join("%d>%d" % (p, q) for p, q in enumerate(f) if q >= 0)
             for f in maps]
    return table, index[(-1,) * k], index[tuple(range(k))], names


def write_table(path, table, zero, identity, names):
    """Write the table file line by line; return the SHA-256 of its text."""
    digest = hashlib.sha256()
    with open(path, "w") as fh:
        def put(line):
            fh.write(line)
            digest.update(line.encode())
        put("elements %d zero %d identity %d\n" % (len(table), zero, identity))
        for row in table:
            put(" ".join(map(str, row.tolist())) + "\n")
        for i, nm in enumerate(names):
            put("name %d %s\n" % (i, nm))
    return digest.hexdigest()


def relabelled(table, zero, identity, names, rng):
    m = len(table)
    perm = np.array(rng.sample(range(m), m))
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    new_names = [None] * m
    for i, nm in enumerate(names):
        new_names[perm[i]] = nm
    return out, int(perm[zero]), int(perm[identity]), new_names


def write_inputs(root, workdir, rng, golden):
    """Write I(4), I(5) and the relabelled I(4); return label -> path."""
    paths = {name: str(root / "tables" / (name + ".tbl")) for name in CORPUS}
    for k in (4, 5):
        paths["i%d" % k] = os.path.join(workdir, "i%d.tbl" % k)
        digest = write_table(paths["i%d" % k], *sim_table(k))
        if golden is not None and digest != golden["generated"]["i%d" % k]:
            raise RuntimeError("generated I(%d) differs from the recorded table" % k)
    paths["i4r"] = os.path.join(workdir, "i4r.tbl")
    write_table(paths["i4r"], *relabelled(*sim_table(4), rng))
    return paths


def op_list(paths, rng):
    """The 34 ops of one pass, in seeded order: every subcommand on the
    corpus and I(4), validate on I(5), classify on the relabelled I(4)."""
    ops = [(sub, label) for label in CORPUS + ("i4",) for sub in SUBS]
    ops += [("validate", "i5"), ("classify", "i4r")]
    rng.shuffle(ops)
    return [{"sub": sub, "label": label, "path": paths[label]} for sub, label in ops]


# ---------------------------------------------------------------------------
# running one op


def cli_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, env, cwd, workdir):
    """Run to exit; return (exit code, stdout, stderr, wall s, peak RSS KiB)."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss


def run_inprocess(cli_main, argv):
    """cli.main(argv) with its output captured: (exit code, stdout, stderr,
    exception).  An exception other than SystemExit is the op's failure."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as caught:  # reported as the op's failure class
            code, exc = 1, caught
    return code, out.getvalue(), err.getvalue(), exc


# ---------------------------------------------------------------------------
# the correctness gate


def error_class(stderr, exc=None):
    if exc is not None:
        return type(exc).__name__
    lines = stderr.strip().splitlines()
    if not lines:
        return "no-message"
    if any(line.startswith("Traceback") for line in lines):
        return lines[-1].split(":", 1)[0].strip()
    if lines[-1].startswith("error:"):
        msg = lines[-1]
        if "limit" in msg:
            return "error:limit"
        return "error"
    return "other"


def facts(sub, label, stdout):
    """Problems with a successful answer on I(k), from theory alone."""
    k = {"i2": 2, "i3": 3, "i4": 4, "i4r": 4, "i5": 5}.get(label)
    sizes = {"chain2": 3}
    want = []
    if sub == "validate":
        want = ["valid table: %d elements" % (sizes.get(label) or sim_size(k))]
    elif k is None:
        return []
    elif sub == "classify":
        want = ["I(%d)" % k]
    elif sub == "dualize":
        want = ["objects: %d" % k, "arrows: %d" % (k * k), "roundtrip: true"]
    elif sub == "complete":
        want = ["completion size: %d" % sim_size(k), "boolean: true"]
    elif sub == "congfree":
        want = ["congruence-free: false"]
    elif sub == "simplifying":
        want = ["0-simplifying: true"]
    elif sub == "ideals":
        want = ["tightly closed ideals: 2"]
    elif sub == "predicates":
        want = ["fundamental: true", "meet_semigroup: true", "distributive: true",
                "boolean: true"]
    lines = set(stdout.splitlines())
    return ["missing line %r" % w for w in want if w not in lines]


def judge(op, code, stdout, stderr, golden, exc=None):
    """('ok' | 'fail' | 'wrong', error class or None, reason)."""
    key = "%s %s" % (op["sub"], op["label"])
    expected_error = (op["sub"], op["label"]) in EXPECTED_ERRORS
    if code != 0:
        cls = error_class(stderr, exc)
        if expected_error and code == 1 and cls == "error" and not stdout:
            return "ok", None, ""
        return "fail", cls, stderr.strip().splitlines()[-1] if stderr.strip() else cls
    if expected_error:
        return "wrong", None, "answered a table that breaks the precondition"
    problems = facts(op["sub"], op["label"], stdout)
    want = golden["ops"].get(key)
    if want is not None and hashlib.sha256(stdout.encode()).hexdigest() != want["sha256"]:
        problems.append("stdout differs from the golden output (starts %r)" % want["head"])
    if problems:
        return "wrong", None, "; ".join(problems)
    return "ok", None, ""


def load_golden(bench_dir):
    with open(bench_dir / "golden.json") as fh:
        return json.load(fh)


def capture(stdout, code):
    """The golden record of one op's answer."""
    return {"exit": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "head": stdout[:80]}
