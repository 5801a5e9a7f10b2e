"""Time to a verified solution with hypflow, end to end and layer by layer.

    python3 bench/run.py --workload flow-ensemble --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                   # every workload, one after another

A run is one process.  It sets up the workload, then runs whole rounds of
operations (see workloads.py), one at a time in a closed loop, until the
operations have taken --seconds and the run holds at least the workload's
minimum count.  Each operation is timed alone; its output is checked after
its round, outside the timing.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it wraps hypflow's layers (tracer.py) and
reports the per-layer metrics instead, and writes its spans to
bench/_runs/.  The last line of standard output is one JSON object.

hypflow is imported from src/ next to this directory, never from elsewhere;
the run fails when it is not there.
"""

import os

# one BLAS thread in this process and every process it starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / "_runs"
WORKLOAD_NAMES = ("flow-ensemble", "newton-sweep", "cli-cold")
SETUP_SAMPLES = 5  # setup_s is the median over this many fresh processes


def import_hypflow():
    """Put src/ first on the path and import hypflow from there, or exit."""
    if not (SRC / "hypflow" / "__init__.py").is_file():
        sys.exit(f"bench: no hypflow package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypflow

    if Path(hypflow.__file__).resolve().parent != SRC / "hypflow":
        sys.exit(f"bench: imported hypflow from {hypflow.__file__}, not from {SRC}")
    return hypflow


# -- setup ---------------------------------------------------------------------


def setup_probe(args) -> int:
    """The set-up work of a run, in a fresh process: import hypflow, build
    the inputs of one round (round --setup-probe) from the seed and run one
    warm-up operation.  Prints `ready` when done."""
    import_hypflow()
    import workloads

    workdir = make_workdir(args)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, None)
        workload.round(args.setup_probe)
        problem = workload.warm_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problem is not None:
        sys.exit(f"bench: warm-up operation failed its check: {problem}")
    print("ready", flush=True)
    return 0


def setup_seconds(args) -> list[float]:
    """Time SETUP_SAMPLES set-ups, each from process start to `ready`.

    Set-up k builds the inputs of round k, so the median is that of a
    typical round's input building: how long screening takes to fill a
    round depends on the draws."""
    samples = []
    for k in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(k),
               "--workload", args.workload, "--seed", str(args.seed)]
        started = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            sys.exit("bench: set-up probe failed")
        samples.append(ready - started)
    return samples


def make_workdir(args) -> Path:
    workdir = RUNS_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


# -- the run -------------------------------------------------------------------


class Outcome:
    def __init__(self):
        self.durations = []  # seconds per operation, in run order
        self.failed = 0
        self.wrong = 0  # failed because the output was wrong, not because it raised
        self.messages = []
        self.rounds = 0
        self.round_rss_kb = []  # peak RSS of each round's process
        self.child_rss_kb = []  # peak RSS of each process an operation started


def run_round(workload, r: int, tracer) -> dict:
    """Build round r, run its operations one at a time, then check them.

    The peak RSS is read after the operations and before the checks, so it
    is that of the work alone."""
    if tracer is None:
        ops = workload.round(r)
    else:
        with tracer.root("inputs", f"round {r}"):
            ops = workload.round(r)
    results = []
    for op in ops:
        started = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.root("op", op.label):
                    result = op.run()
        except Exception as exc:  # an operation that raises is counted as failed
            result = exc
        results.append((result, perf_counter() - started))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"durations": [], "problems": [], "rss_kb": rss_kb,
               "child_rss_kb": getattr(workload, "child_rss_kb", [])}
    for op, (result, seconds) in zip(ops, results):
        summary["durations"].append(seconds)
        if isinstance(result, Exception):
            problem = (f"{op.label}: raised {type(result).__name__}: {result}", True)
        else:
            message = op.check(result)
            problem = None if message is None else (f"{op.label}: {message}", False)
        summary["problems"].append(problem)
    return summary


def run_round_forked(workload, r: int, tracer) -> dict:
    """`run_round` in a process forked from this one, which has imported
    hypflow and run the warm-up.  Each round starting from the same state
    gives every round its own peak RSS and keeps one round's memory growth
    out of the next.  The run has no threads, so forking is safe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.reset()
            summary = run_round(workload, r, tracer)
            if tracer is not None:
                summary["trace"] = tracer.state()
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                json.dump(summary, fh)
            code = 0
        except BaseException:
            # the child must never unwind into the parent's code: report
            # anything, interrupts included, and leave through os._exit
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        sys.exit(f"bench: the process running round {r} failed")
    summary = json.loads(data)
    if tracer is not None:
        tracer.absorb(summary["trace"])
    return summary


def run_rounds(workload, seconds: float, tracer) -> Outcome:
    out = Outcome()
    gc.freeze()  # forked rounds then leave the inherited objects untouched
    while sum(out.durations) < seconds or len(out.durations) < workload.min_ops:
        summary = run_round_forked(workload, out.rounds, tracer)
        out.durations += summary["durations"]
        for problem in summary["problems"]:
            if problem is not None:
                message, raised = problem
                out.failed += 1
                out.wrong += 0 if raised else 1
                if len(out.messages) < 10:
                    out.messages.append(message)
        out.round_rss_kb.append(summary["rss_kb"])
        out.child_rss_kb += summary["child_rss_kb"]
        out.rounds += 1
    return out


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, out: Outcome, setups) -> dict:
    """The end-to-end metrics.  peak_rss_mb is that of the process doing the
    work: the median over rounds of the round process's peak, or, when the
    operations start processes of their own (cli-cold), the largest of those."""
    ms = [d * 1e3 for d in out.durations]
    if out.child_rss_kb:
        rss_kb = max(out.child_rss_kb)
    else:
        rss_kb = statistics.median(out.round_rss_kb)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "solves_per_s": (len(ms) / sum(out.durations), "1/s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.tail": (percentile(ms, workload.tail_percentile), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run(args) -> int:
    hypflow = import_hypflow()
    import workloads

    setups = setup_seconds(args) if not args.trace else None
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(hypflow)
    workdir = make_workdir(args)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        problem = workload.warm_up()
        if problem is not None:
            sys.exit(f"bench: warm-up operation failed its check: {problem}")
        out = run_rounds(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = out.wrong == 0
    if tracer is None:
        metrics = end_to_end(workload, out, setups)
    else:
        import layers

        metrics, identity_error = layers.per_layer(tracer, len(out.durations))
        if identity_error > 1e-9:
            print(f"bench: self times miss the operations' wall time by {identity_error:.3e}",
                  file=sys.stderr)
            correct = False
        RUNS_DIR.mkdir(exist_ok=True)
        tracer.dump(RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "ops": len(out.durations)})

    for message in out.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {out.rounds} rounds, "
          f"{len(out.durations)} operations attempted, {out.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(out.durations),
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, as the single-workload runs do."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
