#!/usr/bin/env python3
"""winfer benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload compute-mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nothing needs building.  Each run is its own
interpreter and a closed loop with one client: one item at a time, the next
sent when the last returns.  BLAS/OpenMP pools are capped at ``nproc``.

``--trace 0`` prints the end-to-end metrics.  Gated (in the result line):

* ``setup_s``: fresh interpreter to ready (``import winfer``, input
  generation, one untimed warm-up item), the median of nine fresh
  interpreters, started one at a time between the timed items at even steps
  over the run, so that they meet the same machine states as the items.
* ``ok_items_per_ref_s``: successful items per second spent in items, at the
  host's reference speed.  The host is a shared machine whose speed drifts
  by up to 1.5x over seconds to minutes while its neighbours are busy, so
  ten runs of the plain rate spread by 7-29% (quartile distance over
  median).  A fixed pure-Python loop, timed between items at least every
  half second, measures that speed: each item's latency is divided by the
  loop's time around it over its time at the reference speed
  (``CAL_REF_S``).  Nothing in winfer runs in the loop, so a change to
  winfer moves this figure as much as the plain rate.
* ``peak_rss_mb``: ``ru_maxrss`` of the process that ran the items.

Printed, not gated: ``ok_items_per_s`` (the plain rate) with the host
slowdown, ``item_ms_p50`` (median item latency pooled over the run's passes,
a failed item counting as +inf), ``item_ms_p90`` where the run holds at
least 100 latencies, and ``fail_frac`` (failed items over the items of a
pass).  The median item changes with the seed's variants and failures, so
over ten seeds p50 and p90 spread by up to 32%.

The result line counts distinct items: ``attempted`` is the number of items
in the pass, each run at least once, and ``failed`` those with a failed
output in any pass, so neither depends on how many passes fit in a run.

``--trace 1`` runs untraced passes for half of ``--seconds``, then exactly one
traced pass, and prints the per-layer metrics of that pass (tracer.py) plus
the tracing overhead (traced minus untraced ``ok_items_per_ref_s``).  Spans go
to ``.bench_work/traces/``.  Traced and untraced outputs must be byte-identical.

Every item's output is checked (workloads.py).  The last line of standard
output is the JSON result; the lines before it give every metric with its
unit, the failures and the check verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:      # before numpy is imported, here and in children
    os.environ[_var] = str(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9
P90_MIN_SAMPLES = 100
# Host speed: a fixed pure-Python loop of CAL_LOOPS iterations, timed between
# items at least every CAL_EVERY_S seconds of the run.  CAL_REF_S is what it
# takes at the reference speed (about the fast state of a shared 2-vCPU VM
# running CPython 3.11).
CAL_LOOPS = 300_000
CAL_EVERY_S = 0.5
CAL_REF_S = 0.020

import workloads  # noqa: E402  (stdlib only; winfer is imported after the checks)


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _import_winfer():
    if not os.path.isfile(os.path.join(SRC, "winfer", "__init__.py")):
        raise SystemExit(f"error: no winfer sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import winfer
    import winfer.cli
    if not os.path.abspath(winfer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported winfer from {winfer.__file__}, not {SRC}")
    return winfer


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile (for p90); safe with +inf entries."""
    k = math.ceil(round(q * len(sorted_values), 9)) - 1
    return sorted_values[max(0, k)]


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------

def run_item(item, index: int, tracer=None) -> dict:
    """Time one item; returns its outcome (latency, exit code, output digest)."""
    import winfer.cli
    if item.out and os.path.exists(item.out):
        os.remove(item.out)
    if tracer is not None:
        tracer.item = index
        span = tracer.open("bench.item")
    rc = value = exc = tb = None
    t0 = time.perf_counter()
    try:
        if item.argv is not None:
            rc = winfer.cli.main(list(item.argv))
        else:
            value = item.call()
    except Exception as err:  # an uncaught library error is an item outcome
        exc, tb = type(err).__name__, traceback.format_exc()
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    text = ""
    if item.out and os.path.exists(item.out):
        with open(item.out, encoding="utf-8") as fh:
            text = fh.read()
    payload = text if item.argv is not None else repr(value)
    digest = hashlib.sha256(f"{rc}|{exc}|{payload}".encode()).hexdigest()
    return {"index": index, "latency": latency, "rc": rc, "exception": exc,
            "traceback": tb, "text": text, "value": value, "digest": digest}


def calibration_loop() -> float:
    """Seconds the fixed calibration loop takes now: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def run_passes(plan, seconds: float, tracer=None, max_passes=None, probes: int = 0,
               probe=None) -> tuple:
    """Whole passes until the next would end after `seconds` (at least one).

    `probes` calls of `probe()` (set-up probes, each returning its seconds)
    run between items, due at even steps over `seconds`, so they meet the
    machine in the same states as the items; those not yet made when the
    passes end follow them.  The calibration loop runs first, last, and
    after an item when CAL_EVERY_S has passed since it last ran; each outcome
    records the calibration made before it ("cal").  Returns (outcomes,
    probe results, calibration times)."""
    outcomes, pass_busy, seen, probed = [], [], set(), []
    start = time.perf_counter()
    calibrations = [calibration_loop()]
    last_cal = time.perf_counter()
    while True:
        busy = 0.0
        for i, item in enumerate(plan.items):
            out = run_item(item, i, tracer)
            out["pass"] = len(pass_busy)
            out["cal"] = len(calibrations) - 1
            busy += out["latency"]
            if (i, out["digest"]) in seen:
                out["text"] = out["value"] = None   # judged from its first copy
            seen.add((i, out["digest"]))
            outcomes.append(out)
            if len(probed) < probes and \
                    time.perf_counter() - start >= len(probed) * seconds / probes:
                probed.append(probe())
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                calibrations.append(calibration_loop())
                last_cal = time.perf_counter()
        pass_busy.append(busy)
        if max_passes is not None and len(pass_busy) >= max_passes:
            break
        owed = (probes - len(probed)) * (statistics.mean(probed) if probed else 0.0)
        if time.perf_counter() - start + statistics.mean(pass_busy) + owed > seconds:
            break
    calibrations.append(calibration_loop())
    while len(probed) < probes:
        probed.append(probe())
    return outcomes, probed, calibrations


def judge(plan, outcomes: list) -> dict:
    """Check every distinct output; sets each outcome's "problems" and returns
    the failed outcomes and the problems not recorded as known defects."""
    verdicts = {}     # (index, digest) -> problems
    for o in outcomes:
        key = (o["index"], o["digest"])
        if key not in verdicts:
            item = plan.items[o["index"]]
            try:
                verdicts[key] = item.check(o, item)
            except Exception as err:  # output in a shape the check cannot read
                verdicts[key] = [f"output check raised {type(err).__name__}: {err}"]
    failed, unknown = [], {}
    for o in outcomes:
        problems = verdicts[(o["index"], o["digest"])]
        o["problems"] = problems
        if problems:
            item = plan.items[o["index"]]
            failed.append(o)
            new = [p for p in problems if p not in item.expected]
            if new:
                unknown[item.key] = new
    return {"failed": failed, "unknown": unknown}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: str):
    """Everything before the first timed item: import, inputs, warm-up."""
    _import_winfer()
    os.makedirs(workdir, exist_ok=True)
    plan = workloads.make_plan(workload, seed, workdir)
    run_item(plan.warmup, -1)
    return plan


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or rc != 0:
        raise SystemExit(f"error: set-up probe failed (exit {rc})")
    return ready


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def header(args, plan) -> list:
    import numpy
    import scipy
    return [
        f"# winfer benchmark workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# python {platform.python_version()} numpy {numpy.__version__} "
        f"scipy {scipy.__version__} nproc {NPROC} thread_cap {NPROC} "
        f"commit {_git_commit()}",
        f"# why: {workloads.WHY[args.workload]}",
        f"# inputs: {json.dumps(plan.inputs, sort_keys=True)}",
    ]


def failure_lines(plan, verdict: dict) -> list:
    lines = []
    seen = {}
    for o in verdict["failed"]:
        key = plan.items[o["index"]].key
        seen.setdefault(key, [0, o])[0] += 1
    for key, (count, o) in seen.items():
        kind = "UNKNOWN" if key in verdict["unknown"] else "known defect"
        lines.append(f"failed {key} x{count} ({kind}): {'; '.join(o['problems'])}")
        if o["traceback"]:
            sys.stderr.write(f"traceback of {key}:\n{o['traceback']}")
    for key, problems in verdict["unknown"].items():
        lines.append(f"check: {key} has problems not recorded at the defining commit: "
                     f"{'; '.join(problems)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            sys.stdout.write("READY\n")
            sys.stdout.flush()
            return 0
        plan = setup(args.workload, args.seed, workdir)
        if args.trace:
            return traced_run(args, plan)
        return timed_run(args, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _rate(outcomes: list) -> float:
    """Successful items per second spent in items."""
    busy = sum(o["latency"] for o in outcomes)
    return sum(not o["problems"] for o in outcomes) / busy


def _ref_rate(outcomes: list, calibrations: list) -> float:
    """Successful items per second at the reference speed: each latency is
    divided by the host slowdown around its item, the mean time of the
    calibration loops just before and after it over CAL_REF_S."""
    busy = sum(o["latency"] * 2.0 * CAL_REF_S
               / (calibrations[o["cal"]] + calibrations[o["cal"] + 1]) for o in outcomes)
    return sum(not o["problems"] for o in outcomes) / busy


def _failed_items(failed: list) -> int:
    """Distinct items of the pass with a failed output in any of its passes."""
    return len({o["index"] for o in failed})


def _emit(lines: list, correct: bool, plan, failed: list, metrics: dict) -> None:
    """The result line counts distinct items, each run at least once, so that
    attempted and failed do not depend on how many passes fit in a run."""
    for line in lines:
        print(line)
    print("check: " + ("PASS" if correct else "FAIL"))
    print(json.dumps({"correct": correct, "attempted": len(plan.items),
                      "failed": _failed_items(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def timed_run(args, plan) -> int:
    def probe():
        return probe_setup(args.workload, args.seed)
    outcomes, setups, calibrations = run_passes(plan, args.seconds, probes=SETUP_SAMPLES,
                                                probe=probe)
    verdict = judge(plan, outcomes)
    failed = verdict["failed"]
    lat = sorted(float("inf") if o["problems"] else o["latency"] * 1e3
                 for o in outcomes)
    rate, ref_rate = _rate(outcomes), _ref_rate(outcomes, calibrations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ok_items_per_ref_s": (ref_rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = header(args, plan)
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    lines.append(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    lines.append(f"metric ok_items_per_s {rate:.6g} 1/s (not gated; host slowdown "
                 f"{ref_rate / rate:.4f} from {len(calibrations)} calibration loops)")
    lines.append(f"metric item_ms_p50 {statistics.median(lat):.6g} ms "
                 f"(not gated; {len(lat)} samples over {len(lat) // len(plan.items)} passes)")
    if len(lat) >= P90_MIN_SAMPLES:
        lines.append(f"metric item_ms_p90 {_percentile(lat, 0.9):.6g} ms "
                     f"(not gated; {len(lat)} samples)")
    else:
        lines.append(f"# item_ms_p90 not reported: {len(lat)} samples < {P90_MIN_SAMPLES}")
    n_failed = _failed_items(failed)
    lines.append(f"metric fail_frac {n_failed / len(plan.items):.6g} "
                 f"({n_failed}/{len(plan.items)} items, {len(failed)}/{len(outcomes)} "
                 f"runs of items; not gated)")
    lines += failure_lines(plan, verdict)
    correct = not verdict["unknown"]
    _emit(lines, correct, plan, failed, metrics)
    return 0


def traced_run(args, plan) -> int:
    from tracer import PER_LAYER_METRICS, Tracer
    plain, _, plain_cal = run_passes(plan, args.seconds / 2.0)
    tracer = Tracer()
    tracer.patch()
    try:
        traced, _, traced_cal = run_passes(plan, 0.0, tracer=tracer, max_passes=1)
    finally:
        tracer.unpatch()
    outcomes = plain + traced
    verdict = judge(plan, outcomes)
    failed = verdict["failed"]
    values = tracer.metrics()
    values["trace.overhead_items_per_s"] = (_ref_rate(traced, traced_cal)
                                            - _ref_rate(plain, plain_cal))
    metrics = {k: (values[k], unit) for k, unit in PER_LAYER_METRICS.items()}

    plain_digests = {}
    for o in plain:
        plain_digests.setdefault(o["index"], set()).add(o["digest"])
    mismatched = [plan.items[o["index"]].key for o in traced
                  if plain_digests.get(o["index"]) != {o["digest"]}]

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    base = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}")
    tracer.save(base + ".npz", [it.key for it in plan.items])
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"absent": tracer.absent, "bindings": dict(tracer.bindings),
                   "counts": dict(tracer.counts), "spans": len(tracer.sp_start)},
                  fh, indent=1, sort_keys=True)

    lines = header(args, plan)
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value:.6g} {unit}")
    for name, reason in sorted(tracer.absent.items()):
        lines.append(f"absent {name}: {reason} (its metrics read 0)")
    lines.append(f"# traced pass: {len(traced)} items, {len(tracer.sp_start)} spans -> {base}.npz")
    lines += failure_lines(plan, verdict)
    for key in mismatched:
        lines.append(f"check: traced output of {key} differs from the untraced output")
    correct = not verdict["unknown"] and not mismatched
    _emit(lines, correct, plan, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
