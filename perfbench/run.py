"""ontomap benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload kb-build --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # each in its own process
    python3 perfbench/run.py --workload kb-build --smoke  # tiny sizes

A job is one seeded input taken through the workload's pipeline; the next
job starts when the previous one ends, until the timed jobs add up to
`--seconds` (and at least MIN_JOBS ran).  Every job's outputs are checked;
a job that raises or fails a check counts in `failed`.

Job and setup times are reported scaled to a reference CPU speed: the
host's speed drifts by tens of percent from second to second when other
tenants share it, and a fixed pure-Python loop timed just before and
just after each job measures that drift (see `scaled`).  Raw wall times
are kept in the run record.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics from spans recorded
around the calls into each layer, and `trace_overhead_ratio`, from pairs
of traced and untraced runs of the same job input.  Run records and span
files go to perfbench/out/.  README.md defines every metric.
"""

import argparse
import functools
import gc
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

OUT_DIR = HERE / "out"
PINS_PATH = HERE / "pins.json"
WORKLOAD_NAMES = ("kb-build", "kb-explore", "topics-flat", "topics-forest")
MIN_JOBS = 21           # job_s_tail: ten jobs beyond it, at or above p50
SMOKE_MIN_JOBS = 2
PIN_JOBS = 2            # jobs 0 and 1 of a pinned seed carry digests
WALL_LIMIT_S = 150      # stop starting jobs past this, to end within 180 s
IMPORT_REPS = 5
REF_ITERS = 200_000     # reference loop length, about 15 ms
REF_NOMINAL_S = 0.015   # reference loop time that scaled seconds assume

END_TO_END_UNITS = {"setup_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                    "peak_rss_mb": "MiB"}
# workload -> (rate name, job_sizes key it divides by job time, unit)
RATES = {"kb-build": ("axioms_per_s", "axioms", "axioms/s"),
         "topics-flat": ("tokens_per_s", "token_sweeps", "token-sweeps/s"),
         "topics-forest": ("tokens_per_s", "token_sweeps", "token-sweeps/s")}


def reference_s():
    """Time of a fixed pure-Python loop: how fast this process runs now."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t


def scaled(wall_s, ref_before, ref_after):
    """`wall_s` as it would read on a CPU where the reference loop takes
    REF_NOMINAL_S, from the loop's times just before and after."""
    return wall_s * 2 * REF_NOMINAL_S / (ref_before + ref_after)


def load_program():
    """Import ontomap from this checkout's src/, IMPORT_REPS times.

    numpy, the one runtime dependency, is imported first and kept; before
    each repetition every module loaded since then (ontomap and anything
    it pulls in) is dropped, so each import does the same work.  Returns
    (median scaled import seconds, numpy import wall seconds).
    """
    t = time.perf_counter()
    import numpy  # noqa: F401
    numpy_s = time.perf_counter() - t
    keep = set(sys.modules)
    src = (ROOT / "src").resolve()
    times = []
    for _ in range(IMPORT_REPS):
        for name in set(sys.modules) - keep:
            del sys.modules[name]
        ref = reference_s()
        t = time.perf_counter()
        import ontomap
        times.append(scaled(time.perf_counter() - t, ref, reference_s()))
        if Path(ontomap.__file__).resolve().parent.parent != src:
            raise ImportError(f"ontomap imported from {ontomap.__file__}, "
                              f"not from {src}")
    return statistics.median(times), numpy_s


def tail(times):
    """Highest job-time percentile with at least ten jobs beyond it:
    (value, percentile, jobs beyond).  With fewer than eleven jobs this
    is the fastest job, and `jobs beyond` says how few stand behind it."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def run_record(name, seed, seconds, trace, smoke, sizes, loadavg):
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg_start": loadavg, "commit": git_commit(),
            "input_sizes": sizes}


def git_commit():
    """HEAD of this checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name, seed, seconds, trace, smoke=False, out_dir=OUT_DIR,
                 pins=None, write_pins=False, log=None):
    """Run one workload in this process; returns the result object
    {correct, attempted, failed, metrics} plus `record` and `table`."""
    log = log or (lambda msg: print(msg, file=sys.stderr))
    loadavg = os.getloadavg()
    if "workloads" in sys.modules:       # already loaded in this process
        import_s, numpy_s = 0.0, 0.0
    else:
        import_s, numpy_s = load_program()
    from tracing import Tracer, layer_metrics, unit_of
    from workloads import WORKLOADS

    mode = "smoke" if smoke else "full"
    if pins is None:
        pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    seed_pins = pins.setdefault(mode, {}).setdefault(name, {}) \
        .setdefault(str(seed), {})
    out_dir = Path(out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    wl = WORKLOADS[name](seed, smoke, ROOT, workdir)
    attempted = failed = 0

    def verify(job, fails, digests):
        nonlocal failed
        pinned = seed_pins.get(str(job))
        if write_pins:
            seed_pins[str(job)] = digests
        elif pinned is not None:
            for key, want in pinned.items():
                if digests.get(key) != want:
                    fails.append(f"digest {key} {digests.get(key)} != "
                                 f"pinned {want}")
        if fails:
            failed += 1
            log(f"{name} seed {seed} job {job} FAILED: " + "; ".join(fails[:5]))

    wl.hook()
    try:
        setup_times, setup_wall = [], []
        for r in range(wl.setup_reps):
            gc.collect()
            ref = reference_s()
            if tracer:
                tracer.install()
                tracer.job = f"setup-{r}"
            try:
                t = time.perf_counter()
                wl.setup()
                setup_wall.append(time.perf_counter() - t)
            finally:
                if tracer:
                    tracer.job = None
                    tracer.uninstall()
            setup_times.append(scaled(setup_wall[-1], ref, reference_s()))
        fails, digests = wl.after_setup()
        if fails or digests:
            attempted += 1
            verify("setup", fails, digests)
        setup_s = import_s + statistics.median(setup_times)

        times = {False: [], True: []}     # traced? -> scaled job times
        wall_times = []                   # untraced wall job times
        job_sizes = []
        measured = 0.0
        wall0 = time.perf_counter()
        min_jobs = MIN_JOBS
        block = wl.block
        if smoke:       # a few tiny jobs, whatever --seconds says
            seconds, min_jobs = 0, SMOKE_MIN_JOBS
        if write_pins:
            seconds, min_jobs, block = 0, PIN_JOBS, 1
        j = 0
        while (measured < seconds or j < min_jobs or j % block) and \
                time.perf_counter() - wall0 < WALL_LIMIT_S:
            order = ((False, True) if j % 2 == 0 else (True, False)) \
                if trace else (False,)
            for traced in order:
                inp = wl.make_input(j)
                attempted += 1
                gc.collect()
                ref = reference_s()
                if traced:
                    tracer.install()
                    tracer.job = j
                try:
                    t = time.perf_counter()
                    out = wl.run(inp)
                    dt = time.perf_counter() - t
                except Exception:
                    dt = time.perf_counter() - t
                    out = None
                    fails = ["raised:\n" + traceback.format_exc()]
                finally:
                    if traced:
                        tracer.job = None
                        tracer.uninstall()
                job_s = scaled(dt, ref, reference_s())
                times[traced].append(job_s)
                if not traced:
                    wall_times.append(dt)
                measured += dt
                if out is not None:
                    note = functools.partial(tracer.note, j) if traced \
                        else _no_note
                    try:
                        fails, digests = wl.check(inp, out, note)
                    except Exception:
                        fails = ["check raised:\n" + traceback.format_exc()]
                        digests = {}
                    if not traced and not fails:
                        job_sizes.append({**wl.job_sizes(inp, out),
                                          "job_s": job_s})
                    verify(j, fails, digests)
                else:
                    verify(j, fails, {})
            j += 1
        sizes = wl.sizes()
    finally:
        wl.unhook()
        for f in workdir.iterdir():
            f.unlink()
        workdir.rmdir()

    record = run_record(name, seed, seconds, trace, smoke, sizes, loadavg)
    untraced = times[False]
    if trace:
        metrics = layer_metrics(tracer)
        metrics["trace_overhead_ratio"] = (
            statistics.median(times[True]) / statistics.median(untraced))
        units_of = {k: unit_of(k) for k in metrics}
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        value, pct, beyond = tail(untraced)
        metrics = {"setup_s": setup_s,
                   "job_s_p50": statistics.median(untraced),
                   "job_s_tail": value,
                   "peak_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0}
        units_of = dict(END_TO_END_UNITS)
        record.update({"job_s_tail_percentile": pct,
                       "job_s_tail_jobs_beyond": beyond,
                       "setup_import_s": import_s,
                       "numpy_import_s": numpy_s,
                       "setup_work_s": setup_times,
                       "setup_work_wall_s": setup_wall,
                       "job_wall_s_p50": statistics.median(wall_times),
                       "job_wall_times_s": wall_times,
                       "error_rate": failed / attempted,
                       "job_times_s": untraced,
                       "job_sizes": job_sizes})
        if name in RATES and job_sizes:
            rate_name, key, _ = RATES[name]
            record[rate_name] = (sum(s[key] for s in job_sizes)
                                 / sum(s["job_s"] for s in job_sizes))
    record.update({"attempted": attempted, "failed": failed,
                   "metrics": metrics})
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units_of[k]}
                          for k, v in metrics.items()}}
    if write_pins:
        PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                             + "\n")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"record-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {**result, "record": record, "table": table_rows(name, record,
                                                            units_of)}


def _no_note(key, value):
    pass


def table_rows(name, record, units_of):
    """Human-readable rows: workload, metric, value, unit, note."""
    rows = []
    for key, value in record["metrics"].items():
        note = ""
        if key == "job_s_tail":
            note = (f"p{record['job_s_tail_percentile']:.0f}, "
                    f"{record['job_s_tail_jobs_beyond']} jobs beyond, "
                    f"{len(record['job_times_s'])} jobs")
        rows.append((name, key, value, units_of[key], note))
    if "error_rate" in record:
        rows.append((name, "job_wall_s_p50", record["job_wall_s_p50"], "s",
                     "median job time, unscaled"))
        rate_name, _, unit = RATES.get(name, (None, None, None))
        if rate_name in record:
            sizes = record["job_sizes"]
            median_job = {k: statistics.median(s[k] for s in sizes)
                          for k in sizes[0] if k != "job_s"}
            rows.append((name, rate_name, record[rate_name], unit,
                         f"median job {median_job}"))
        rows.append((name, "error_rate", record["error_rate"], "ratio",
                     f"{record['failed']} failed / "
                     f"{record['attempted']} attempted"))
    return rows


def format_rows(rows):
    return "\n".join(f"{w:<14} {k:<34} {v:>14.6g} {u:<15} {n}"
                     for w, k, v, u, n in rows)


def run_all(args):
    """Each workload in its own child process, one after another."""
    rows, attempted, failed, metrics = [], 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        rows.extend(lines[:-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in result["metrics"].items():
            metrics[f"{name}.{key}"] = m
    print("\n".join(rows))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, a few jobs, --seconds ignored")
    parser.add_argument("--write-pins", action="store_true",
                        help="record the digests of jobs 0-1 (and setup) "
                             "for this seed in pins.json")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # constraint warnings are data here; keep them off stderr
    logging.getLogger("ontomap").addHandler(logging.NullHandler())
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), smoke=args.smoke,
                              write_pins=args.write_pins)
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_rows(result["table"]))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
