"""clutterstats benchmark: closed-loop workloads with end-to-end metrics,
output checks, and a separate traced run for per-layer metrics.

Run from the root of a source checkout (the package is imported from ./src):

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process and one thread issue one op at a time, for --seconds of wall time
and at least MIN_OPS ops.  Times are process CPU time (see README.md: on this
VM the host takes the CPU away in bursts, which wall time would count as the
program's).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one thread: the workloads are single-threaded by design, and a library
# thread pool would make timings depend on what else the machine runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("sweep", "fit", "closed_form", "oracle")
MIN_OPS = 40  # so that op_tail_ms has at least 10 ops beyond it
SETUP_PROBES = 3  # fresh processes timed for setup_s; the median is reported
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up as a normal run would, print "ready" and exit
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import clutterstats from ./src of the current directory, and only
    from there."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "clutterstats", "__init__.py")):
        sys.exit(f"bench: no src/clutterstats under {os.getcwd()}; run from a source checkout")
    sys.path.insert(0, src)
    import clutterstats

    if not os.path.abspath(clutterstats.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported clutterstats from {clutterstats.__file__}, not {src}")
    import clutterstats.cli  # noqa: F401  (the oracle workload calls it)

    return clutterstats


def quantile_tail(times):
    """The highest percentile with at least 10 values beyond it."""
    ordered = sorted(times)
    return ordered[len(ordered) - 11]


def setup_probe_seconds(args):
    """CPU time a fresh benchmark process spends from its start until its
    first op is ready (interpreter start, imports, input generation,
    warm-up), as the process reports it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    word, _, value = done.stdout.partition(" ")
    if done.returncode != 0 or word != "ready":
        sys.exit(f"bench: set-up probe failed (exit {done.returncode}, said {done.stdout!r})")
    return float(value)


def run_all(args):
    """Each workload in its own process; a table on stderr and one combined
    JSON line (metrics prefixed by workload) on stdout."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        for line in done.stderr.splitlines():
            if line.startswith("bench:"):
                print(f"{workload}: {line}", file=sys.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
        print(f"{workload:12s} attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}", file=sys.stderr)
    print(json.dumps(combined))


def main(argv):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cs = import_package()
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cs)
    workload = workloads.make(args.workload, cs, args.seed)
    workload.warm_up()
    if args.setup_probe:
        print(f"ready {time.process_time()!r}", flush=True)
        return

    times, outputs, errors = [], [], []
    # ops on the same input keep one copy of an equal output, so memory (and
    # peak_rss_mb, and the collector's work) does not grow with the op count
    first_output = {}
    attempted = 0
    loop_start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        frame = tracer.begin_op() if tracer else None
        start = time.process_time()
        try:
            out = workload.op(attempted)
        except Exception as exc:  # an op that fails is counted, and the run goes on
            errors.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        else:
            times.append(time.process_time() - start)
            earlier = first_output.setdefault(workload.input_key(attempted), out)
            outputs.append((attempted, earlier if earlier == out else out))
        finally:
            if tracer:
                tracer.end_op(frame)
        attempted += 1
        if time.perf_counter() - loop_start >= args.seconds and attempted >= MIN_OPS:
            break
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    if len(times) < 11:
        sys.exit(f"bench: only {len(times)} of {attempted} ops completed")

    refs = workload.references(outputs)
    failures = workload.check(outputs, refs)
    if not workload.check(workload.corrupt(outputs), refs):
        failures.append("self-test: the check accepted a deliberately wrong value")
    for line in failures[:20]:
        print(f"bench: {line}", file=sys.stderr)

    if tracer:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.save(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.npz"))
        # op CPU time with tracing on; minus the untraced op_p50_ms it is the
        # tracing overhead
        metrics = {"traced.op_p50_ms": (1e3 * statistics.median(times), "ms")}
        metrics.update(tracer.metrics(list(workloads.FAMILIES)))
    else:
        setup = statistics.median(setup_probe_seconds(args) for _ in range(SETUP_PROBES))
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (len(times) / cpu, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(times), "ms"),
            "op_tail_ms": (1e3 * quantile_tail(times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {len(errors)}, correct {not failures}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
