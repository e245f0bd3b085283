#!/usr/bin/env python3
"""The orefields benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the workload's op list (CLI
argv lists) from the seed, then drives `orefields.cli.main(argv)` as a
closed loop with one client: each pass runs every op once, in order, in a
fresh worker process, and passes follow one another until S seconds have
gone (at least three passes).  Every op's output is checked against
oracles that do not use orefields, and every op's output must be
byte-identical across passes.

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracles import check_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 9          # fresh-process imports per run, pass workers included
RUN_LIMIT_S = 150.0        # start no pass that would end after this
WORKER_TIMEOUT_S = 170.0


def run_worker(ops, trace=False, spans_path=None):
    job = {"root": str(ROOT), "ops": ops, "trace": trace, "spans_path": spans_path}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def run_passes(argvs, seconds, schedule):
    """Run passes while time remains; schedule(k) says whether pass k is
    traced.  Returns the pass results in order."""
    spans_dir = ROOT / ".perfbench"
    passes = []
    t_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_start
        k = len(passes)
        if k >= MIN_PASSES and elapsed >= seconds:
            break
        if k >= 2 and elapsed + max(p["proc_s"] for p in passes) > RUN_LIMIT_S:
            break
        traced = schedule(k)
        spans_path = None
        if traced:
            spans_dir.mkdir(exist_ok=True)
            spans_path = str(spans_dir / "spans.bin")
        t0 = time.monotonic()
        result = run_worker(argvs, traced, spans_path)
        result["proc_s"] = time.monotonic() - t0
        result["traced"] = traced
        passes.append(result)
    return passes


def judge(ops, passes):
    """Per-op failures over every pass, and whether any op returned a
    wrong answer while claiming success (exit 0), or a nondeterministic one."""
    first = passes[0]["ops"]
    verdicts = [check_op(op["exp"], rec) for op, rec in zip(ops, first)]
    reasons = Counter()
    failed = 0
    wrong = False
    for p in passes:
        for i, rec in enumerate(p["ops"]):
            base = first[i]
            if (rec["sha"], rec["code"], rec["error"]) != (base["sha"], base["code"], base["error"]):
                failed += 1
                wrong = True
                reasons[f"{ops[i]['argv'][0]}: output differs between identical invocations"] += 1
                continue
            problem, claimed_ok = verdicts[i]
            if problem is not None:
                failed += 1
                wrong = wrong or claimed_ok
                reasons[f"{ops[i]['argv'][0]}: {problem[:80]}"] += 1
    return failed, wrong, reasons


def end_to_end(passes, setup_samples):
    # each op's median over the passes, so that the percentiles over the
    # workload's ops do not depend on how many passes fit in the run
    times = [statistics.median(p["ops"][i]["ms"] for p in passes)
             for i in range(len(passes[0]["ops"]))]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1]
    beyond = sum(t > p90 for t in times)
    print(f"op samples: {len(times)} ops x {len(passes)} passes ({beyond} ops beyond p90), "
          f"setup samples: {len(setup_samples)}")
    print(f"unscaled: wall_s {statistics.median(p['raw_wall_s'] for p in passes):.4f}, "
          f"calibration kernel {statistics.median(p['kernel_s'] for p in passes) * 1000:.3f} ms")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_ms.p50": (statistics.median(times), "ms"),
        "op_ms.p90": (p90, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    counts = [p["trace"]["counts"] for p in traced]
    repeat = all(c == counts[0] for c in counts)
    print(f"traced passes: {len(traced)}, untraced: {len(plain)}, "
          f"spans per pass: {traced[0]['trace']['spans']}, counts repeat exactly: {repeat}")
    if traced[0]["trace"]["missing"]:
        print("entry points not found: " + ", ".join(traced[0]["trace"]["missing"]))
    print("inclusive layer time (s): " + ", ".join(
        f"{layer}={statistics.median(p['trace']['inclusive_s'][layer] for p in traced):.4f}"
        for layer in traced[0]["trace"]["inclusive_s"]))
    metrics = {}
    for name, (_, unit) in traced[0]["trace"]["metrics"].items():
        values = [p["trace"]["metrics"][name][0] for p in traced]
        metrics[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orefields" / "cli.py").is_file():
        print(f"error: no orefields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    argvs = [op["argv"] for op in ops]
    run_worker([])          # first import compiles the bytecode; users pay that once

    if args.trace:
        # untraced, traced, traced, then untraced/traced pairs
        passes = run_passes(argvs, args.seconds, lambda k: k == 1 or (k >= 2 and k % 2 == 0))
    else:
        passes = run_passes(argvs, args.seconds, lambda k: False)
    setup_samples = [p["setup_s"] for p in passes]
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(run_worker([])["setup_s"])

    attempted = len(ops) * len(passes)
    failed, wrong, reasons = judge(ops, passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"{failed} of {attempted} op runs failed")
    for reason, n in reasons.most_common(12):
        print(f"  {n:5d}  {reason}")

    if args.trace:
        metrics, repeat = per_layer(passes)
        correct = not wrong and repeat
    else:
        metrics = end_to_end(passes, setup_samples)
        correct = not wrong
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
