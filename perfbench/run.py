"""twins-lab benchmark entry point.

    python3 perfbench/run.py --workload readme-run --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(worker.py) that import `twins_lab` from the checkout's `src` with one
BLAS thread: SETUP_SAMPLES - 1 of them only set up, to time set-up, and
the last one also measures. The last stdout line is the JSON result;
the full report, with provenance and digests, goes to .perfbench/.
Uses only the standard library, so it never loads numpy itself.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("readme-run", "robust-eval", "clean-pretrain")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every run must end within 180 s
# One BLAS thread: results are identical under 1 and 2 threads, and
# repeats spread less than with the default count on a 2-core machine.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def launch(root, workdir, args, deadline, setup_only, spans=None):
    """Run one worker to completion; returns (its result, seconds from
    process start to its first timed command)."""
    os.makedirs(workdir)
    result = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--result", result]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1", **THREAD_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    return out, out["ready"] - start


def measure(root, args):
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(root, ".perfbench", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    reports = os.path.join(root, ".perfbench", "reports")
    os.makedirs(reports, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(reports, f"{name}-spans.jsonl.gz")
    try:
        setups = [launch(root, os.path.join(work, f"setup{k}"), args,
                         deadline, True)[1]
                  for k in range(SETUP_SAMPLES - 1)]
        out, setup = launch(root, os.path.join(work, "run"), args, deadline,
                            False, spans if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(setup)
    out["setups_s"] = setups
    with open(os.path.join(reports, f"{name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "twins_lab",
                                       "__init__.py")):
        print(f"error: no src/twins_lab under {root}; run from the root "
              f"of a twins-lab checkout", file=sys.stderr)
        return 2
    try:
        out = measure(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = out["passes"]
    problems = [p for q in passes for cmd in q["problems"] for p in cmd]
    problems += out["run_problems"]
    attempted = sum(len(q["problems"]) for q in passes)
    failed = sum(1 for q in passes for cmd in q["problems"] if cmd)
    digests = sorted({q["digest"] for q in passes})
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands, failed_share {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    print(f"artifact digest: {' '.join(digests)}")
    print(f"provenance: {json.dumps(out['provenance'], sort_keys=True)}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    if args.trace:
        metrics = out["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(out["setups_s"]),
                        "unit": "s"},
            "images_per_s": {"value": statistics.median(
                q["images_per_s"] for q in passes), "unit": "images/s"},
            "peak_rss_mb": {"value": out["rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
