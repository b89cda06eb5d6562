"""Pinned benchmark of the nagata library, end to end and per layer.

    python3 perfbench/run.py --workload harbourne-field --seed 2024 --seconds 30 --trace 0

Runs one workload (workloads.py) from the root of a source checkout in a
closed loop: one op at a time, BLAS/OpenMP pinned to one thread.  Every
pass over the workload's ops is an A/B pass: the library under test
(``src/nagata``) and the pinned reference copy (``perfbench/reference``)
each run it in a fresh interpreter on the same fresh inputs, and the two
take turns op by op, so only one of them computes at any time.  Times are
reported in reference seconds: each op's library/reference time ratio
times the reference's nominal time for that op (nominal.json), so a spell
of host slowness that lasts longer than an op cancels out.  Passes repeat until the next
one would overrun --seconds (after the workload's minimum); every op's
output is checked.  The summary goes to stdout and the last line is one
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced passes and reports the per-layer metrics from the wrappers in
layers.py.  A record of the run, with the spans of a traced run, is
written under perfbench/out/.  See README.md.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"  # holds the pinned copy of the library, as nagata/
OUT = HERE / "out"

WORKLOAD_NAMES = ("harbourne-field", "kernel-exact", "cli-reports")
ROLES = ("program", "reference")
SETUP_PAIRS = 7  # program/reference set-up pairs behind setup_s
TAIL_BEYOND = 10  # op_tail_ms starts at the highest percentile with this many calls above
CHILD_TIMEOUT_S = 150
# The reference copy's wall-clock seconds per op and per set-up at the
# nominal host speed, written by nominal.py
NOMINAL = json.loads((HERE / "nominal.json").read_text())
END_TO_END_UNITS = {
    "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Pinned nagata benchmark (see README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=2024, help="master seed of the inputs")
    p.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one pass in this interpreter, driven over stdin; used by the run itself
    p.add_argument("--pass-index", type=int, help=argparse.SUPPRESS)
    p.add_argument("--role", choices=ROLES, default="program", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **{var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# One side of a pass, in a fresh interpreter


def setup(args, out_dir: str, rec=None):
    """Everything before the first timed op: imports, generation of the
    pass's inputs and warm-up.  With a recorder, input generation is traced
    into it."""
    import workloads  # imports every nagata layer

    undo = None
    if rec is not None:
        import layers

        undo = layers.install(rec)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        ops = wl.ops(args.pass_index)
    finally:
        if undo is not None:
            layers.uninstall(undo)
    wl.warm_up()
    return wl, ops


def time_op(op, rec=None):
    """(seconds, problems, observed value) of one call; with a recorder the
    layer wrappers are installed around the call and the op gets a root
    span.  Observing the result is not timed."""
    if rec is not None:
        import layers

        undo = layers.install(rec)
        handle = rec.open("op:" + op.name)
    start = time.perf_counter()
    try:
        raw, problems = op.run(), []
    except Exception:  # a raising op is a counted failure, never dropped
        raw, problems = None, ["raised: " + traceback.format_exc()]
    finally:
        elapsed = time.perf_counter() - start
        if rec is not None:
            rec.close(handle)
            layers.uninstall(undo)
    observed = None
    if not problems:
        try:
            observed = op.observe(raw)
        except Exception:
            problems = ["observe raised: " + traceback.format_exc()]
    return elapsed, problems, observed


def check_pass(ops, timed) -> dict:
    """Check every op once the pass's timed calls are over, so the library
    calls some checks make cannot serve a timed one.  ``timed`` holds
    (seconds, problems, observed value) per op, in op order."""
    observed = {op.name: seen for op, (_, _, seen) in zip(ops, timed)}
    failed = []
    for op, (_, problems, seen) in zip(ops, timed):
        if not problems:
            try:
                problems = op.check(seen, observed)
            except Exception:
                problems = ["check raised: " + traceback.format_exc()]
        if problems:
            failed.append([op.name, problems])
            for p in problems:
                print(f"FAIL {op.name}: {p}", file=sys.stderr)
    return {"names": [op.name for op in ops], "seconds": [t for t, _, _ in timed],
            "failed": failed}


def serve_pass(args) -> int:
    """Child mode: set up and print "ready <ops> <min passes>", then run op
    i for each line "i" read from stdin, answering "done" after each, until
    "end"; then check the ops and print the result as one JSON line."""
    rec = None
    if args.trace:
        from spans import Recorder

        rec = Recorder()
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl, ops = setup(args, scratch, rec)
        print(f"ready {len(ops)} {wl.min_passes}", flush=True)
        if args.setup_only:
            return 0
        setup_phase = rec.take() if rec is not None else None
        timed = []
        for line in sys.stdin:
            if line.strip() == "end":
                break
            timed.append(time_op(ops[int(line)], rec))
            print("done", flush=True)
        if len(timed) != len(ops):
            raise RuntimeError(f"ran {len(timed)} of {len(ops)} ops")
        result = check_pass(ops, timed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rec is not None:
        import layers

        pass_phase = rec.take()
        result["layers"] = {"setup": layers.pass_metrics(setup_phase),
                            "pass": layers.pass_metrics(pass_phase)}
        result["spans"] = {"setup": setup_phase.spans, "pass": pass_phase.spans}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The run: A/B passes driven from this process


class Child:
    """One side of a pass in a fresh interpreter, started and set up."""

    def __init__(self, args, k: int, role: str, traced: bool = False,
                 setup_only: bool = False):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--pass-index", str(k), "--role", role,
               "--trace", str(int(traced))]
        if setup_only:
            cmd.append("--setup-only")
        self.role = role
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready = self.proc.stdout.readline().split()
            self.setup_s = time.perf_counter() - start
            if len(ready) != 3 or ready[0] != "ready":
                raise RuntimeError(f"{role} interpreter of pass {k} failed to set up")
        except BaseException:
            self.stop()
            raise
        self.n_ops, self.min_passes = int(ready[1]), int(ready[2])

    def run(self, i: int) -> None:
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "done":
            raise RuntimeError(f"{self.role} interpreter stopped at op {i}")

    def end(self) -> None:
        self.proc.stdin.write("end\n")
        self.proc.stdin.flush()

    def result(self):
        """Wait for the child to exit; returns the last line it printed as
        JSON (None for a set-up-only child)."""
        out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"{self.role} interpreter exited {self.proc.returncode}")
        lines = out.splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()


def start_pair(args, k: int, traced: bool = False, setup_only: bool = False) -> dict:
    """Start the two sides of pass k one after the other, alternating which
    goes first; returns {role: Child}."""
    order = ROLES if k % 2 == 0 else ROLES[::-1]
    pair = {}
    try:
        for role in order:
            pair[role] = Child(args, k, role, traced and role == "program", setup_only)
    except BaseException:
        for child in pair.values():
            child.stop()
        raise
    return pair


def ab_pass(args, k: int, traced: bool) -> dict:
    """Run pass k on both sides, op by op, alternating which side goes
    first.  Returns the program's result with the reference's seconds per
    op and the set-up seconds of both sides."""
    pair = start_pair(args, k, traced)
    try:
        prog, ref = pair["program"], pair["reference"]
        if prog.n_ops != ref.n_ops:
            raise RuntimeError("the two sides of a pass have different ops")
        for i in range(prog.n_ops):
            first, second = (prog, ref) if (i + k) % 2 == 0 else (ref, prog)
            first.run(i)
            second.run(i)
        prog.end()  # both sides check at once
        ref.end()
        ref_result = ref.result()
        result = prog.result()
    finally:
        for child in pair.values():
            child.stop()
    # the reference runs the same code on the same inputs when the benchmark
    # is defined, so it fails where the library did; its times still count
    result.update(reference_seconds=ref_result["seconds"],
                  reference_failed=ref_result["failed"], min_passes=prog.min_passes,
                  setup_pair=[prog.setup_s, ref.setup_s])
    return result


def completed(p) -> list:
    """(name, library seconds, reference seconds) of the ops that passed
    their checks on the library side."""
    failed = {name for name, _ in p["failed"]}
    return [(name, t, u)
            for name, t, u in zip(p["names"], p["seconds"], p["reference_seconds"])
            if name not in failed]


def speed_ratio(p) -> float:
    """Program seconds over reference seconds on the same ops of pass p."""
    done = completed(p)
    return sum(t for _, t, _ in done) / sum(u for _, _, u in done)


def scaled_calls(workload: str, p) -> list:
    """The library's call seconds of pass p in reference seconds: each op's
    library/reference ratio times the reference's nominal seconds for it."""
    nominal = NOMINAL["ops"][workload]
    return [t / u * nominal[name] for name, t, u in completed(p)]


def pass_scale(workload: str, p) -> float:
    """Reference seconds per wall-clock second of the library in pass p."""
    return sum(scaled_calls(workload, p)) / sum(t for _, t, _ in completed(p))


def tail_rank(min_passes: int, ops_per_pass: int) -> tuple:
    """(quantile, n): the op_tail_ms percentile is pinned to the highest one
    with TAIL_BEYOND calls above it at the workload's minimum pass count."""
    n = min_passes * ops_per_pass
    return (n - TAIL_BEYOND) / n, n


def hd_median(xs: list) -> float:
    """Harrell-Davis estimate of the median: every order statistic weighted
    by the Beta((n+1)/2, (n+1)/2) mass of its slot in [0, 1].  It reads
    several calls around the middle, so one call slowed by the host moves
    it less than it moves the sample median."""
    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def pdf(t):
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_beta) if 0 < t < 1 else 0.0

    steps = 16  # Simpson's rule per slot
    h = 1 / (steps * n)
    weights = [h / 3 * sum((1 if j in (0, steps) else 4 if j % 2 else 2) * pdf(i / n + j * h)
                           for j in range(steps + 1))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(workload: str, passes: list, setup_pairs: list) -> dict:
    """Per-pass figures in reference seconds: wall_s and op_p50_ms are
    medians over passes, op_tail_ms pools the calls of every pass, setup_s
    is the median library/reference ratio of the set-up pairs times the
    nominal set-up."""
    per_pass = [scaled_calls(workload, p) for p in passes]
    calls = sorted(s for xs in per_pass for s in xs)
    q, _ = tail_rank(passes[0]["min_passes"], len(passes[0]["seconds"]))
    return {
        "wall_s": statistics.median(sum(xs) for xs in per_pass),
        "ops_per_s": len(calls) / sum(calls),
        "op_p50_ms": 1e3 * statistics.median(hd_median(xs) for xs in per_pass),
        "op_tail_ms": 1e3 * statistics.mean(calls[max(0, math.ceil(q * len(calls)) - 1):]),
        "setup_s": NOMINAL["setup"][workload] * statistics.median(a / b for a, b in setup_pairs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def bench(args) -> int:
    passes, traced = [], []
    start = time.perf_counter()
    k = 0
    while True:
        # a traced run alternates traced (even k) and untraced passes
        is_traced = bool(args.trace) and k % 2 == 0
        pass_start = time.perf_counter()
        result = ab_pass(args, k, is_traced)
        (traced if is_traced else passes).append(result)
        k += 1
        now = time.perf_counter()
        minimum = 2 if args.trace else result["min_passes"]
        if k >= minimum and now - start + (now - pass_start) > args.seconds:
            break
    all_passes = traced + passes
    attempted = sum(len(p["seconds"]) for p in all_passes)
    failed = sum(len(p["failed"]) for p in all_passes)
    setup_pairs = [p["setup_pair"] for p in passes]
    if any(not completed(p) for p in all_passes):  # a pass with no call to measure
        metrics, units = {}, {}
    elif args.trace:
        import layers

        overhead = (statistics.median(speed_ratio(p) for p in traced)
                    / statistics.median(speed_ratio(p) for p in passes))
        scales = [pass_scale(args.workload, p) for p in traced]
        metrics = layers.layer_metrics(traced[0]["layers"]["setup"],
                                       [p["layers"]["pass"] for p in traced],
                                       scales, overhead)
        units = layers.UNITS
    else:
        for j in range(len(setup_pairs), SETUP_PAIRS):
            pair = start_pair(args, j, setup_only=True)
            for child in pair.values():
                child.result()
            setup_pairs.append([pair["program"].setup_s, pair["reference"].setup_s])
        metrics = end_to_end(args.workload, passes, setup_pairs)
        units = END_TO_END_UNITS

    env = environment()
    q, n_min = tail_rank(passes[0]["min_passes"], len(passes[0]["seconds"]))
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} untraced" + (f" and {len(traced)} traced" if args.trace else "")
          + f" A/B passes of {len(passes[0]['seconds'])} ops, each side in a fresh interpreter")
    print("# env " + json.dumps(env, sort_keys=True))
    for p in all_passes:
        print(f"# pass: library {sum(p['seconds']):.3f} s, reference "
              f"{sum(p['reference_seconds']):.3f} s (wall clock), ratio {speed_ratio(p):.4f}")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (mean from p{100 * q:.2f} up, pinned at n = {n_min}; "
                    f"n = {sum(len(completed(p)) for p in passes)} this run)")
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"{name:32s} {shown} {units[name]}{note}")
    print(f"{'fail_ratio':32s} {failed / attempted:16.6f} ({failed} of {attempted} ops)")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": attempted, "failed": failed,
        "metrics": metrics, "setup_pairs": setup_pairs,
        "passes": passes, "traced_passes": traced,
    }
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nagata" / "__init__.py").is_file():
        print("error: run from the root of a nagata checkout (src/nagata not found)",
              file=sys.stderr)
        return 2
    # the reference side imports the pinned copy as nagata, the rest src/
    sys.path.insert(0, str(REFERENCE if args.role == "reference" else SRC))
    OUT.mkdir(exist_ok=True)
    if args.pass_index is not None:
        # both sides of a pass on one CPU: the two CPUs of a shared host
        # are slowed by different neighbours, which would bias the ratio
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        return serve_pass(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
