"""The benchmark's Ray driver process: one invocation's set-ups, timed
runs, check and traced pass.

``run.py`` starts it as a child process (``job.py <workload> <seed>
<seconds> <trace>``) and reads one JSON object per stdout line:

* ``{"run": {"ok": ..., "wall": ..., "peak": ..., "amp": ...}}`` after
  every timed run, so the parent still counts the runs a crashed child
  made;
* ``{"result": {...}}`` once, at the end, or ``{"error": "..."}`` if
  the traced pass fails its span check.

A crash of this process (Ray's core worker can abort the driver) thus
costs one failed run, not the whole invocation.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: set-ups per invocation; ``setup_s`` is their median
SETUPS = 2

#: RSS sampling period, and samples between rescans of ``/proc`` for
#: worker processes
RSS_INTERVAL_S = 0.05
RSS_RESCAN = 10

#: scratch space, inside the checkout and ignored by git
WORK = os.path.join(HERE, ".work")
RAY_TEMP = os.path.join(ROOT, ".rt")
#: the longest socket path Ray puts under its temp dir
SOCKET_SUFFIX = "/session_2026-01-01_00-00-00_000000_9999999/sockets/" \
    "plasma_store"


def nproc() -> int:
    """What coreutils ``nproc`` prints: the usable CPUs, overridden by
    ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    for var, pick in (("OMP_NUM_THREADS", lambda v: v),
                      ("OMP_THREAD_LIMIT", lambda v: min(n, v))):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = pick(v)
    return n


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, n))
               for d, _, names in os.walk(path) for n in names)


class RssSampler:
    """Peak of the summed RSS of the driver and every Ray worker process
    (``default_worker.py``), sampled from ``/proc`` on a thread."""

    def __init__(self):
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.peak = 0
        self._n = 0
        self._pid_list = []
        self._stop = threading.Event()
        self._thread = None

    def _pids(self):
        pids = [os.getpid()]
        for p in os.listdir("/proc"):
            if not p.isdigit():
                continue
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    if b"default_worker.py" in f.read():
                        pids.append(int(p))
            except OSError:
                pass
        return pids

    def sample(self):
        # worker processes come and go slowly; rescan /proc every few
        # samples rather than on each one
        if self._n % RSS_RESCAN == 0:
            self._pid_list = self._pids()
        self._n += 1
        total = 0
        for pid in self._pid_list:
            try:
                with open(f"/proc/{pid}/statm") as f:
                    total += int(f.read().split()[1]) * self.page
            except OSError:
                pass
        self.peak = max(self.peak, total)

    def _loop(self):
        while not self._stop.wait(RSS_INTERVAL_S):
            self.sample()

    def __enter__(self):
        self.peak = 0
        self._n = 0
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def init_ray():
    import logging

    import ray
    import ray.data as rd
    # workers import the package from this checkout whatever the cwd:
    # the raylet and its workers inherit the driver's environment (a
    # runtime_env with the same variable costs ~3 s more per set-up)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [
            p for p in paths if p])
    kwargs = dict(address="local", num_cpus=nproc(),
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False,
                  object_store_memory=512 * 1024 * 1024)
    # Ray's session sockets live under the temp dir and unix socket paths
    # are capped at 107 bytes; keep it in the checkout when it fits
    if len(RAY_TEMP) + len(SOCKET_SUFFIX) <= 107:
        kwargs["_temp_dir"] = RAY_TEMP
    else:
        print(f"perfbench: {RAY_TEMP} is too long for Ray's sockets; "
              "using Ray's default temp dir", file=sys.stderr)
    ray.init(**kwargs)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    return path


def emit(**event):
    print(json.dumps(event), flush=True)


def main(argv):
    workload, seed, seconds, trace = argv
    sys.path[:0] = [ROOT, HERE]
    import workloads
    wl = workloads.WORKLOADS[workload]
    # a terminated job still shuts Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = fresh(os.path.join(WORK, str(os.getpid())))
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    try:
        run(wl, int(seed), float(seconds), int(trace), work)
    finally:
        import ray
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


def run(wl, seed, seconds, trace, work):
    in_dir, digest = wl.ensure_input(seed)
    print(f"perfbench: {wl.name} seed={seed} input={digest[:16]}",
          file=sys.stderr)
    import gen
    in_bytes = gen.input_bytes(in_dir)
    slice_dir = os.path.join(work, "slice")
    wl.write_slice(in_dir, slice_dir)

    # set-up: package import, then ray.init + one warm-up run on the
    # slice, repeated; the last session stays up for the timed runs
    t0 = time.perf_counter()
    import ray
    import nacc_form_validator_ray.pipelines.pretrain  # noqa: F401
    import nacc_form_validator_ray.pipelines.queries  # noqa: F401
    import nacc_form_validator_ray.stages.validate  # noqa: F401
    import_s = time.perf_counter() - t0
    setups = []
    for i in range(1 if trace else SETUPS):
        if ray.is_initialized():
            ray.shutdown()
        t0 = time.perf_counter()
        init_ray()
        t1 = time.perf_counter()
        wl.body(slice_dir, fresh(os.path.join(work, "warmup")))
        setups.append(time.perf_counter() - t0)
        print(f"perfbench: set-up {i}: ray.init {t1 - t0:.3f} s, warm-up "
              f"{time.perf_counter() - t1:.3f} s", file=sys.stderr)

    # timed closed loop: one job at a time, fresh output dir per run;
    # the last good output is kept for the check
    out_dir = os.path.join(work, "out")
    good_dir = os.path.join(work, "good")
    walls = []
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not walls:
        fresh(out_dir)
        attempted += 1
        try:
            with RssSampler() as rss:
                t0 = time.perf_counter()
                wl.body(in_dir, out_dir)
                wall = time.perf_counter() - t0
        except Exception:  # a failed run is counted, not fatal
            failed += 1
            emit(run={"ok": False})
            print(f"perfbench: run {attempted} failed:\n"
                  + traceback.format_exc(), file=sys.stderr)
            if failed >= 3 and not walls:
                break
            continue
        walls.append(wall)
        emit(run={"ok": True, "wall": wall, "peak": rss.peak,
                  "amp": dir_bytes(out_dir) / in_bytes})
        fresh(good_dir)
        os.replace(out_dir, good_dir)
    if not walls:
        return

    t0 = time.perf_counter()
    if wl.check_on_slice:
        mismatch = wl.check(slice_dir, os.path.join(work, "warmup"), seed,
                            work)
    else:
        mismatch = wl.check(in_dir, good_dir, seed, work)
    print("perfbench: set-ups " + " ".join(f"{s:.3f}" for s in setups)
          + f" (import {import_s:.3f}), check {time.perf_counter() - t0:.2f}"
          f" s, {mismatch} mismatches", file=sys.stderr)

    layer_metrics = None
    if trace:
        import layers
        try:
            layer_metrics = layers.traced_pass(
                wl, in_dir, work, statistics.median(walls), seed)
        except layers.SpanError as e:  # not a crash: no restart
            emit(error=f"span check failed: {e}")
            return
    emit(result={"rows": wl.input_rows(in_dir), "import_s": import_s,
                 "setups": setups, "mismatch": mismatch,
                 "layers": layer_metrics})


if __name__ == "__main__":
    main(sys.argv[1:])
