"""Single-node benchmark of the package's batch jobs.

Usage (from the repository root, or from anywhere with the path)::

    python3 perfbench/run.py --workload qf_pages --seed 1 --seconds 15 \\
        --trace 0

One invocation makes the seeded input (cached). It sets up Ray twice
(``setup_s``), then runs the workload as a closed loop of one job at a
time for ``--seconds`` (end-to-end metrics). It checks the output
against the workload's oracle, and with ``--trace 1`` it adds a traced
pass that splits a run into layers (per-layer metrics). Ray runs at
``num_cpus = nproc``.

The Ray driver is a child process (``job.py``). If it crashes, the run
it was in counts as failed and the job starts once more. The last line
of stdout is one JSON object; the line before it lists every end-to-end
metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "nacc_form_validator_ray"

#: jobs start and run within this many seconds of the invocation's
#: start; a hung job then gets 15 s to shut Ray down, all within 180 s
DEADLINE_S = 150
#: job processes per invocation: the first, and more after a crash
ATTEMPTS = 3
#: a job's time besides its measuring window (set-ups, check, trace) on
#: a slow host
JOB_OVERHEAD_S = 45

UNITS = {"setup_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB",
         "out_bytes_per_in_byte": "ratio", "mismatch_rows": "count",
         "failed_frac": "ratio"}


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _stop_strays(work_dir):
    """Kill whatever a job left running and wait until it is gone. The
    job sets ``TMPDIR`` under ``work_dir`` before it starts Ray, so every
    process of its Ray session (raylet, GCS, agents, workers) carries
    that in its environment."""
    mark = f"TMPDIR={work_dir}{os.sep}".encode()
    pids = []
    for p in os.listdir("/proc"):
        if p.isdigit() and int(p) != os.getpid():
            try:
                with open(f"/proc/{p}/environ", "rb") as f:
                    if mark in f.read():
                        pids.append(int(p))
            except OSError:
                pass
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        while True:
            try:
                with open(f"/proc/{pid}/stat") as f:
                    if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                        break  # dead, waiting for its parent to reap it
            except OSError:
                break
            time.sleep(0.05)


def run_job(args, seconds, timeout):
    """One job process measuring for ``seconds``; returns its run events
    and its result (None if it crashed or timed out, ``{"error": ...}``
    if it failed a check that a restart would fail again)."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"), args.workload,
           str(args.seed), str(seconds), str(args.trace)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: job timed out", file=sys.stderr)
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    runs, result = [], None
    for line in out.splitlines():
        if line.startswith('{"run": '):
            runs.append(json.loads(line)["run"])
        elif line.startswith('{"result": '):
            result = json.loads(line)["result"]
        elif line.startswith('{"error": '):
            result = json.loads(line)
        else:  # anything else a library printed
            print(line, file=sys.stderr)
    if proc.returncode:
        print(f"perfbench: job exited {proc.returncode} after "
              f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    return runs, result


def main(argv=None) -> int:
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        _fail(f"package {PACKAGE} not found beside {HERE}")
    sys.path[:0] = [ROOT, HERE]
    import job
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}")
    if args.trace:
        units, kind = layers.LAYER_METRICS, "per_layer"
    else:
        units, kind = UNITS, "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    wrong = {k: u for k, u in declared.items() if units.get(k) != u}
    if wrong:
        _fail(f"BENCHMARK.json declares metrics this benchmark does not "
              f"measure with that unit: {wrong}")

    # every run any job attempted counts; only the finished job's runs
    # are measured (a crashed job's result is lost with it)
    attempted = failed = 0
    runs, result = [], None
    try:
        for _ in range(ATTEMPTS):
            left = DEADLINE_S - (time.monotonic() - start)
            if left < JOB_OVERHEAD_S:
                break
            # a late restart measures for less time rather than not at all
            seconds = min(args.seconds, left - JOB_OVERHEAD_S)
            runs, result = run_job(args, max(seconds, 1.0), left)
            _stop_strays(job.WORK)
            if result is not None and "error" in result:
                _fail(result["error"])
            attempted += len(runs)
            failed += sum(not r["ok"] for r in runs)
            if result is not None:
                break
            attempted += 1  # the run the job died in
            failed += 1
    finally:
        shutil.rmtree(job.RAY_TEMP, ignore_errors=True)
    if result is None:
        _fail("no job finished")

    ok = [r for r in runs if r["ok"]]
    walls = [r["wall"] for r in ok]
    e2e = {
        "setup_s": result["import_s"] + statistics.median(result["setups"]),
        "rows_per_s": result["rows"] / statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak"] for r in ok) / 2**20,
        "out_bytes_per_in_byte": statistics.median(r["amp"] for r in ok),
        "mismatch_rows": result["mismatch"],
        "failed_frac": failed / attempted,
    }
    print(f"perfbench: {len(walls)} runs of {result['rows']} rows, walls "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(f"perfbench {args.workload}: " + ", ".join(
        f"{k}={v:.6g} {UNITS[k]}" for k, v in e2e.items()))

    metrics = result["layers"] if args.trace else e2e
    print(json.dumps({
        "correct": result["mismatch"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
