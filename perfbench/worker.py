"""One pass over a list of ops in a fresh process.

Reads a job {"root", "ops", "trace", "spans_path"} as JSON on stdin, times
the import of orefields.cli from the checkout's src/, then calls
`orefields.cli.main(argv)` once per op, in order, in this process.
Writes one JSON object on stdout: the import time, each op's exit code
(or the exception it raised), time, sha256 and output, the pass's time
and peak RSS, and, when traced, the per-layer metrics.

Times are scaled to a reference machine speed.  The shared machine this
runs on drifts by +-20% in speed over fractions of a second to minutes,
for every process alike.  While the ops run, a timer signal runs a fixed
pure-Python kernel that does not touch orefields every CALIBRATE_EVERY_S;
an op's time excludes the kernel runs inside it and is multiplied by
KERNEL_REFERENCE_S over the median kernel time measured during the op
and within WINDOW_S of it.  The import is scaled by kernels run just
before and after it.  The unscaled times are kept alongside.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

KERNEL_REFERENCE_S = 0.0033     # kernel time on an unloaded x86_64 Xeon, Python 3.11
CALIBRATE_EVERY_S = 0.05
WINDOW_S = 2 * CALIBRATE_EVERY_S


def kernel():
    """Bytecode, small-int and dict work with some Fraction arithmetic, in
    proportions like those of the exact kernel's coefficient operations."""
    table = {}
    acc = 0
    frac = Fraction(0)
    for i in range(12000):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        acc += (i * i) % 97
        if i % 50 == 0:
            frac += Fraction(i, 97)
    return acc + len(table) + frac.numerator


def calibrate():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a result to report, not to die of
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    text = out.getvalue()
    return {"code": code, "error": error,
            "sha": hashlib.sha256(text.encode()).hexdigest(), "out": text}, t0, t1


class Sampler:
    """Runs the kernel from an interval timer while a pass runs and keeps
    (start, duration) of every run."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        self.samples.append((time.perf_counter(), calibrate()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def run_pass(entry, ops):
    """Run the ops under the sampler; returns the op records with scaled
    times, the median kernel time, and the share of the ops' time that
    was the ops' own rather than the kernel's."""
    spans = []
    with Sampler() as sampler:
        records = []
        for argv in ops:
            rec, t0, t1 = run_op(entry, argv)
            records.append(rec)
            spans.append((t0, t1))
    samples = sampler.samples
    starts = [t for t, _ in samples]
    inside_total = 0.0
    for rec, (t0, t1) in zip(records, spans):
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        inside = sum(d for _, d in samples[lo:hi])
        inside_total += inside
        own = (t1 - t0) - inside
        # the kernels run during the op and within WINDOW_S of it; the
        # first and last samples of the pass keep the window nonempty
        near = samples[bisect.bisect_left(starts, t0 - WINDOW_S):
                       bisect.bisect_right(starts, t1 + WINDOW_S)]
        around = statistics.median(d for _, d in near)
        rec["raw_ms"] = own * 1000.0
        rec["ms"] = own * 1000.0 * KERNEL_REFERENCE_S / around
    total = sum(t1 - t0 for t0, t1 in spans)
    return records, statistics.median(d for _, d in samples), (total - inside_total) / total


def main():
    job = json.load(sys.stdin)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    calibrate()
    before = calibrate()
    t0 = time.perf_counter()
    import orefields.cli
    raw_setup = time.perf_counter() - t0
    after = calibrate()
    if not os.path.abspath(orefields.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported orefields from {orefields.cli.__file__}, not from {src}")
    result = {"setup_s": raw_setup * KERNEL_REFERENCE_S / ((before + after) / 2),
              "raw_setup_s": raw_setup, "ops": []}
    if job["ops"]:
        tracer = None
        if job["trace"]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        records, pass_kernel, own_share = run_pass(orefields.cli.main, job["ops"])
        result["ops"] = records
        result["wall_s"] = sum(r["ms"] for r in records) / 1000.0
        result["raw_wall_s"] = sum(r["raw_ms"] for r in records) / 1000.0
        result["kernel_s"] = pass_kernel
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            # kernel runs land in whatever span is open, uniformly in time,
            # so removing their share pro rata leaves each layer's time
            scale = own_share * KERNEL_REFERENCE_S / pass_kernel
            trace = tracer.metrics()
            trace["metrics"] = {k: (v * scale if unit == "s" else v, unit)
                                for k, (v, unit) in trace["metrics"].items()}
            trace["inclusive_s"] = {k: v * scale for k, v in trace["inclusive_s"].items()}
            result["trace"] = trace
            tracer.dump(job["spans_path"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
