"""delay-lqgame benchmark.

    python3 lqbench/run.py --workload <cli-oneshot|delay-grid|equilibrium>
                           --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory.  Every run first times
set-up in fresh interpreters.  With ``--trace 0`` it then prepares the
workload untimed and runs whole cycles for at least ``--seconds`` seconds,
timing a fixed yardstick (``yardstick.py``) after every operation, and the
last stdout line reports the end-to-end metrics.  With
``--trace 1`` it measures import times in fresh interpreters, runs half the
time untraced and half traced, and reports the per-layer metrics.  The
metric names and units are those listed in the checkout's
``BENCHMARK.json``.  Scratch files go to ``.bench_build/lqbench``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "lqbench"
WORKLOADS = ("cli-oneshot", "delay-grid", "equilibrium")

SETUP_REPEATS = 7
IMPORT_REPEATS = 5
TAIL_BEYOND = 10

THREAD_VARS = ("DELAY_LQGAME_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# One BLAS thread, in this process and its children.  The matrices are
# tiny; OpenBLAS's default pool (two threads here) only spins, which made
# the in-process workloads slower and tied their timings to the load on a
# second core.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}

clock = time.perf_counter


def fail(message):
    sys.stderr.write(f"lqbench: {message}\n")
    sys.exit(2)


class Stats:
    """What one stretch of whole cycles did."""

    def __init__(self):
        self.by_op = {}      # operation name -> latencies
        self.yard = {}       # operation name -> yardstick time after each
        self.items = 0
        self.parts = {"synthesize": {}, "replay": {}}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cycles = 0

    @property
    def latencies(self):
        return [t for samples in self.by_op.values() for t in samples]

    @property
    def items_per_s(self):
        return self.items / sum(self.latencies)

    def relative(self, samples_by_kind):
        """Each sample divided by the yardstick time taken right after it."""
        return {name: [t / y for t, y in zip(samples, self.yard[name])]
                for name, samples in samples_by_kind.items()}


def run_cycles(workload, seconds, tracer=None):
    """Run whole cycles until ``seconds`` have passed (at least one)."""
    stats = Stats()
    start = clock()
    while stats.cycles == 0 or clock() - start < seconds:
        for op in workload.cycle():
            if tracer is not None:
                tracer.start_op(stats.cycles)
            stats.attempted += 1
            began = clock()
            try:
                output, parts = op.run()
                elapsed = clock() - began
                op.check(output)
                yard = workload.yardstick()
            except Exception:  # a raise or a wrong output is a failed op
                stats.failed += 1
                if len(stats.errors) < 5:
                    stats.errors.append(f"{op.name}: {traceback.format_exc()}")
                continue
            stats.yard.setdefault(op.name, []).append(yard)
            for role, seconds_spent in parts.items():
                stats.parts[role].setdefault(op.name, []).append(seconds_spent)
            if op.items:
                stats.by_op.setdefault(op.name, []).append(elapsed)
                stats.items += op.items
        stats.cycles += 1
    if not stats.by_op:
        fail("no operation succeeded:\n" + "\n".join(stats.errors))
    return stats


def kind_median(samples_by_kind):
    """Median over operation kinds of each kind's median.

    Every kind runs equally often, so this is the median operation; unlike
    the pooled median it never lands on the gap between two kinds, where
    one kind's slowest and the next kind's fastest sample would decide it.
    """
    return statistics.median(statistics.median(samples)
                             for samples in samples_by_kind.values())


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    return {"value_s": sorted(latencies)[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def timed_child(workloads, argv, env):
    """Wall time of a child process that must exit with code 0."""
    began = clock()
    code = workloads.run_child(argv, env=env, cwd=ROOT)
    elapsed = clock() - began
    if code != 0:
        fail(f"{' '.join(argv)} exited with code {code}")
    return elapsed


def environment(inherited):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "thread_env_inherited": inherited,
    }


def untraced(workloads, args, workdir):
    workload = workloads.make_workload(args.workload, args.seed, workdir)
    workload.prepare()
    stats = run_cycles(workload, args.seconds)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot"
           else resource.RUSAGE_SELF)
    metrics = {
        "op_p50_rel": kind_median(stats.relative(stats.by_op)),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
        "synthesize_p50_rel": kind_median(
            stats.relative(stats.parts["synthesize"])),
        "replay_p50_rel": kind_median(stats.relative(stats.parts["replay"])),
    }
    detail = {"op_p50_s": kind_median(stats.by_op),
              "synthesize_p50_s": kind_median(stats.parts["synthesize"]),
              "replay_p50_s": kind_median(stats.parts["replay"]),
              "yardstick_p50_s": kind_median(stats.yard),
              "items_per_s": stats.items_per_s,
              "op_tail": tail(stats.latencies),
              "op_p50_s_by_op": {name: statistics.median(samples)
                                 for name, samples in stats.by_op.items()}}
    return stats, metrics, detail


def traced(workloads, tracing, args, workdir, env):
    metrics = tracing.measure_imports(env, ROOT, IMPORT_REPEATS)
    workload = workloads.make_workload(args.workload, args.seed, workdir,
                                       in_process_cli=True)
    workload.prepare()
    half = args.seconds / 2.0
    plain = run_cycles(workload, half)
    written = getattr(workload, "bytes_written", 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stats = run_cycles(workload, half, tracer)
    finally:
        tracer.uninstall()
    tracer.write(SCRATCH / f"spans-{args.workload}.csv")
    metrics.update(tracer.layer_metrics(stats.cycles))
    op_busy = sum(stats.latencies) / stats.cycles
    metrics.update({
        "cli.bytes_written": (getattr(workload, "bytes_written", 0)
                              - written) // stats.cycles,
        "ops.attempted": plain.attempted + stats.attempted,
        "ops.failed": plain.failed + stats.failed,
        "ops.busy_s": op_busy,
        "trace.items_per_s": stats.items_per_s,
        "trace.untraced_items_per_s": plain.items_per_s,
        "trace.overhead_frac": 1.0 - stats.items_per_s / plain.items_per_s,
    })
    detail = {"traced_cycles": stats.cycles, "untraced_cycles": plain.cycles,
              "spans": len(tracer.spans), "all_layer_metrics": metrics}
    plain.attempted += stats.attempted
    plain.failed += stats.failed
    plain.errors += stats.errors
    return plain, metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if "DELAY_LQGAME_THREADS" in os.environ:
        fail("DELAY_LQGAME_THREADS must be unset: the benchmark measures "
             "the single-threaded program")
    if not (SRC / "delay_lqgame" / "__init__.py").is_file():
        fail(f"no package source under {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import delay_lqgame
    if Path(delay_lqgame.__file__).resolve().parent != SRC / "delay_lqgame":
        fail(f"imported {delay_lqgame.__file__}, not the checkout's package")
    import tracing
    import workloads

    workdir = SCRATCH / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = workloads.child_env()
    probe = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
             args.workload, str(args.seed), str(workdir)]
    timed_child(workloads, probe, env)  # writes byte-compiled files
    setup_s = statistics.median(timed_child(workloads, probe, env)
                                for _ in range(SETUP_REPEATS))

    if args.trace:
        stats, computed, detail = traced(workloads, tracing, args, workdir,
                                         env)
        listed = spec["per_layer"]
    else:
        stats, computed, detail = untraced(workloads, args, workdir)
        computed["setup_s"] = setup_s
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in listed}

    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": stats.cycles, "operations": len(stats.latencies),
        "failed_frac": stats.failed / stats.attempted,
        "errors": stats.errors, "environment": environment(inherited),
    })
    record = {"correct": stats.failed == 0, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    (SCRATCH / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**record, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(record))


if __name__ == "__main__":
    main()
