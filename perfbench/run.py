"""The pkslab benchmark.

    python3 perfbench/run.py --workload deep-scan|search|certify \
        --seed N --seconds S --trace 0|1

Runs one workload in this process, single-threaded, for about S seconds
of ops, checks every op's output, and prints as its last stdout line one
JSON object {"correct", "attempted", "failed", "metrics"}.  The line
before it is a JSON record of the run (environment, sample counts, the
tail quantile used, failures), also written with the metrics to
.perfbench/ at the root of the checkout.

--trace 0 reports the end-to-end metrics: setup_s, op_p50_s, op_tail_s,
peak_rss_mb and ok_frac.  --trace 1 alternates untraced and traced ops
and reports the per-layer metrics of tracer.PER_LAYER; it also writes
the traced run's spans.  NOTES.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import warm

HERE = Path(__file__).resolve().parent
RESULTS = warm.ROOT / ".perfbench"

SETUP_PROBES = 8  # fresh-interpreter set-ups per untraced run, besides this process's own
TAIL_BEYOND = 10  # the tail is the highest order statistic with this many samples above it
BLOCK_S = 4.0  # op_p50_s is a median over blocks of at least this much op time


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def block_means(samples: list[float]) -> list[float]:
    """Mean op latency over consecutive blocks of ops, each block at least
    BLOCK_S seconds of op time (a shorter remainder joins the last block).
    An op longer than BLOCK_S is a block of its own.

    The machine this was written on flips between a fast and a ~1.5x
    slower state every second or so.  Sub-second ops then fall into two
    modes and their plain median jumps between them from run to run;
    block means average over the states first."""
    blocks: list[list[float]] = []
    current: list[float] = []
    for x in samples:
        current.append(x)
        if sum(current) >= BLOCK_S:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1] += current
        else:
            blocks.append(current)
    return [sum(b) / len(b) for b in blocks]


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, quantile) of the highest order statistic with TAIL_BEYOND
    samples above it, if that is p90 or higher; else the maximum."""
    s = sorted(samples)
    n = len(s)
    if n >= 10 * TAIL_BEYOND:
        i = n - 1 - TAIL_BEYOND
        return s[i], (i + 1) / n
    return s[-1], 1.0


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    where the checkout is not a git repository."""
    git = warm.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 of the pkslab sources, which identifies the code under test
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((warm.SRC / "pkslab").rglob("*.py")):
        digest.update(path.relative_to(warm.SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, loadavg: tuple[float, float, float]) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(loadavg),
        "threads": {var: os.environ.get(var) for var in warm.THREAD_VARS},
    }


def run_ops(workload, seed: int, seconds: float, tracer, hooks, probes: int) -> dict:
    """Closed loop, one op at a time, until the next op would end past
    `seconds`.  With a tracer, every second op is traced (at least one
    of each kind).  Garbage from the previous op is collected before the
    next one starts, outside the timed region.

    `probes` set-up probes are spread over the run between ops, so their
    median samples the machine at several moments rather than one."""
    plain, traced, failures, setups = [], [], [], []
    inputs = workload.inputs(seed)
    min_ops = 2 if tracer else 1
    start = time.perf_counter()
    i = 0
    while True:
        inp = next(inputs)
        is_traced = tracer is not None and i % 2 == 1
        gc.collect()
        if is_traced:
            tracer.op = i
            tracer.install(hooks)
        t = time.perf_counter()
        try:
            result = tracer.call("op", workload.run, inp) if is_traced else workload.run(inp)
            problems = None
        except Exception:  # an op that raises is a failed op, not a crash
            problems = [traceback.format_exc(limit=-3)]
        elapsed = time.perf_counter() - t
        if is_traced:
            tracer.uninstall()
        if problems is None:
            try:
                problems = workload.check(inp, result)
            except Exception:  # a malformed output fails its check
                problems = ["check raised: " + traceback.format_exc(limit=-3)]
            del result
        (traced if is_traced else plain).append(elapsed)
        if problems:
            failures.append({"op": i, "input": repr(inp), "problems": problems[:5]})
        i += 1
        while len(setups) < min(probes, probes * (time.perf_counter() - start) / seconds):
            setups.append(setup_probe())
        now = time.perf_counter() - start
        if i >= min_ops and now + now / i > seconds:
            break
    while len(setups) < probes:
        setups.append(setup_probe())
    return {"plain": plain, "traced": traced, "failures": failures, "ops": i, "setups": setups}


def setup_probe() -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "warm.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["total_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    try:
        warm.prepare_process()
        setup = warm.warm()
    except warm.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    hooks = tracing.pkslab_hooks() if args.trace else None

    ops = run_ops(workload, args.seed, args.seconds, tracer, hooks,
                  0 if args.trace else SETUP_PROBES)
    plain, failures = ops["plain"], ops["failures"]
    blocks = block_means(plain)
    p50 = statistics.median(blocks)
    tail, tail_q = tail_latency(plain)
    record = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, loadavg),
        "ops": ops["ops"],
        "untraced_ops": len(plain),
        "op_p50_blocks": len(blocks),
        "op_p50_s": p50,
        "op_tail_s": tail,
        "op_tail_quantile": tail_q,
        "failed_frac": len(failures) / ops["ops"],
        "setup_stages": setup,
        "failures": failures[:10],
        "op_latencies_s": plain,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if tracer is not None:
        overhead = statistics.median(block_means(ops["traced"])) / p50 - 1.0
        metrics = tracing.layer_metrics(tracer, len(ops["traced"]), setup, overhead)
        record["traced_ops"] = len(ops["traced"])
        record["traced_op_latencies_s"] = ops["traced"]
        record["missing_hooks"] = sorted(tracer.missing)
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    else:
        setup_samples = [setup["total_s"], *ops["setups"]]
        record["setup_samples_s"] = setup_samples
        metrics = {
            name: {"value": value, "unit": unit}
            for name, value, unit in (
                ("setup_s", statistics.median(setup_samples), "s"),
                ("op_p50_s", p50, "s"),
                ("op_tail_s", tail, "s"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                ("ok_frac", (ops["ops"] - len(failures)) / ops["ops"], "frac"),
            )
        }
    result = {
        "correct": not failures,
        "attempted": ops["ops"],
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = result
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
