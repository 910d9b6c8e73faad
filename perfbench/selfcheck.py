"""The benchmark's own checks.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

1. Two fresh generations with the same seed give the same input digest
   (pages and visits), each in its own process and cache directory.
2. One invocation per workload at ``--trace 0`` and ``--trace 1`` prints
   every metric ``BENCHMARK.json`` declares, with its unit, and the
   summary line names every end-to-end metric with its unit.
3. Every span file those invocations wrote passes
   ``layers.check_spans``.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, ".work", "selfcheck")

DIGEST = ("import sys, gen; "
          "print(gen.ensure(sys.argv[1], 7, int(sys.argv[2]), 1)[1])")


def check(ok, what):
    if not ok:
        sys.exit(f"FAIL {what}")


def digest(kind, size, tag):
    cache = os.path.join(SCRATCH, f"{kind}-{tag}")
    out = subprocess.run(
        [sys.executable, "-c", DIGEST, kind, str(size)], cwd=HERE,
        env=dict(os.environ, PERFBENCH_CACHE=cache), check=True,
        capture_output=True, text=True).stdout.strip()
    return out


def invoke(workload, trace):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if r.returncode:
        sys.exit(f"{workload} --trace {trace} exited {r.returncode}:\n"
                 f"{r.stderr[-3000:]}")
    return r.stdout.strip().splitlines()


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for kind, size in (("pages", 500), ("visits", 300)):
        a, b = digest(kind, size, "a"), digest(kind, size, "b")
        check(a == b, f"{kind}: digests differ ({a} vs {b})")
        print(f"ok  {kind}: same seed, same digest {a[:16]}")
    shutil.rmtree(SCRATCH, ignore_errors=True)

    sys.path[:0] = [ROOT, HERE]
    import layers
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            lines = invoke(w["name"], trace)
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            check(got == want, f"{w['name']} --trace {trace}: metrics "
                  f"{got} != declared {want}")
            check(result["correct"], f"{w['name']} --trace {trace}: "
                  "output disagrees with the oracle")
            summary = lines[-2]
            for name, unit in run.UNITS.items():
                check(re.search(rf"\b{name}=\S+ {re.escape(unit)}(,|$)",
                                summary), f"{name} [{unit}] missing "
                      f"from: {summary}")
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics "
                  "with units")
            if trace:
                path = os.path.join(layers.TRACE_DIR,
                                    f"{w['name']}-seed7.jsonl")
                with open(path) as f:
                    layers.check_spans([json.loads(x) for x in f])
                print(f"ok  {w['name']}: span check passed ({path})")


if __name__ == "__main__":
    main()
