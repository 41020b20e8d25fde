"""Record the golden answers of the `tables` workload from the current code.

    python3 perfbench/capture_golden.py

Writes perfbench/golden.json: the SHA-256 of the generated I(4) and I(5)
files, and for every op that exits 0, the SHA-256 of its stdout.  Ops that
fail get no entry; if they start to succeed, the I(k) facts in tables.py
check them.  Run it only at a commit whose answers are known to be right.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import tables

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    env = tables.cli_env(ROOT)
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as work:
        paths = tables.write_inputs(ROOT, work, random.Random(0), None)
        golden = {"generated": {}, "ops": {}}
        for k in (4, 5):
            with open(paths["i%d" % k], "rb") as fh:
                golden["generated"]["i%d" % k] = hashlib.sha256(fh.read()).hexdigest()
        for op in sorted(tables.op_list(paths, random.Random(0)),
                         key=lambda op: (op["label"], op["sub"])):
            argv = [sys.executable, "-m", "stonedual.cli", "finite", op["sub"], op["path"]]
            code, out, err, wall, _ = tables.run_subprocess(argv, env, ROOT, work)
            print("%-12s %-7s exit %d  %.2f s" % (op["sub"], op["label"], code, wall))
            if code == 0:
                golden["ops"]["%s %s" % (op["sub"], op["label"])] = tables.capture(out, code)
    with open(BENCH / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
