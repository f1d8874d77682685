"""One benchmark process: set up one workload's inputs, then run passes of
its CLI commands in a closed loop for the given number of seconds.

Started by run.py with the checkout's `src` on PYTHONPATH and the BLAS
thread count fixed. Writes its findings as JSON to `--result`.
"""

import argparse
import contextlib
import gc
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import twins_lab
from twins_lab import cli

import checks
import spans
import workloads


def git_commit(root):
    """HEAD's commit read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root):
    import numpy as np
    src = os.path.join(root, "src", "twins_lab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_commit": git_commit(root), "source_sha256": h.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_command(cli, argv):
    """(exit code or None, stdout, stderr, seconds) of one in-process
    `twins-lab` command."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed operation, not a stop
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cli, commands, index, recorder):
    """Run every command of a pass once; checks run after tracing is
    uninstalled so they record no spans."""
    shutil.rmtree(workloads.OUT, ignore_errors=True)
    # Graph nodes form reference cycles, so garbage from earlier passes
    # lingers until a full collection. Start each pass as clean as a fresh
    # process would, so peak RSS does not grow with the number of passes.
    gc.collect()
    patched = spans.install(recorder) if recorder is not None else []
    try:
        results = []
        for i, cmd in enumerate(commands):
            if recorder is not None:
                recorder.trace = f"{index}.{i}"
            results.append(run_command(cli, cmd.argv))
    finally:
        spans.uninstall(patched)
    problems = []
    for cmd, (rc, out, err, _) in zip(commands, results):
        if rc != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            problems.append([f"{cmd.argv[0]}: exit code {rc}: {tail[0]}"])
        else:
            problems.append(cmd.check(out))
    seconds = sum(r[3] for r in results)
    images = sum(cmd.images for cmd in commands)
    return {"traced": recorder is not None, "seconds": seconds,
            "images": images, "images_per_s": images / seconds,
            "digest": checks.digest(workloads.OUT, [r[1] for r in results]),
            "problems": problems}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = os.path.join(args.root, "src") + os.sep
    if not os.path.abspath(twins_lab.__file__).startswith(src):
        print(f"twins_lab imported from {twins_lab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    commands = workloads.setup(args.workload, args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(measure(cli, commands, args))
        result["provenance"] = provenance(args.root)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(cli, commands, args):
    """Closed loop of passes until the time budget is spent. A traced run
    alternates untraced and traced passes after a first, untraced pass that
    warms the process, and needs one of each after it."""
    before = spans.snapshot()
    recorder = spans.Recorder() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t = time.perf_counter()
        passes.append(run_pass(cli, commands, len(passes),
                               recorder if traced else None))
        passes[-1]["wall"] = time.perf_counter() - t
        typical = statistics.median(q["wall"] for q in passes)
        done = not args.trace or len({q["traced"] for q in passes[1:]}) == 2
        if done and time.perf_counter() - start + typical > args.seconds:
            break

    run_problems = []
    replaced = spans.replaced_since(before)
    if replaced:
        run_problems.append(f"attributes left replaced: {replaced[:5]}")
    first = passes[0]["digest"]
    for q in passes:
        if q["digest"] != first:
            q["problems"][-1].append(
                f"artifact digest {q['digest'][:16]} differs from the first "
                f"pass's {first[:16]}")
    out = {"passes": passes, "run_problems": run_problems,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0}
    if recorder is not None:
        traced = [str(i) for i, q in enumerate(passes) if q["traced"]]
        counts = spans.per_pass_counts(recorder.spans, traced)
        if any(c != counts[traced[0]] for c in counts.values()):
            run_problems.append("span counts differ between traced passes")
        layers = spans.layer_metrics(recorder.spans, traced)
        ips = lambda flag: statistics.median(
            q["images_per_s"] for q in passes[1:] if q["traced"] == flag)
        layers["trace.images_per_s.traced"] = {"value": ips(True),
                                               "unit": "images/s"}
        layers["trace.images_per_s.untraced"] = {"value": ips(False),
                                                 "unit": "images/s"}
        layers["trace.overhead_ratio"] = {"value": ips(True) / ips(False),
                                          "unit": "ratio"}
        out["per_layer"] = layers
        if args.spans:
            with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
                for s in recorder.spans:
                    fh.write(json.dumps(s.as_list()) + "\n")
    return out


if __name__ == "__main__":
    sys.exit(main())
