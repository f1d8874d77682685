"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the output
passed. The metrics header is restated here rather than imported, so a
program change that alters the CSV contract fails the check.
"""

import hashlib
import json
import math
import os

METRICS_HEADER = ("epoch,lr,train_loss,clean_acc,pgd_acc,"
                  "grad_norm_mean,grad_norm_cv,weight_dist")


def _is_accuracy(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0.0 <= value <= 1.0)


def check_metrics_csv(path, epochs, clean_equals_robust=False):
    """Fixed header, one finite row per epoch, accuracies in [0, 1]."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return [f"{path}: {exc}"]
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{path}: no trailing newline"]
    if lines[0] != METRICS_HEADER:
        return [f"{path}: header {lines[0]!r}"]
    rows = lines[1:-1]
    problems = []
    if len(rows) != epochs:
        problems.append(f"{path}: {len(rows)} rows for {epochs} epochs")
    cols = METRICS_HEADER.split(",")
    for i, line in enumerate(rows):
        fields = line.split(",")
        if len(fields) != len(cols):
            problems.append(f"{path} row {i}: {len(fields)} fields")
            continue
        try:
            row = dict(zip(cols, map(float, fields)))
        except ValueError:
            problems.append(f"{path} row {i}: not a number")
            continue
        if not all(math.isfinite(v) for v in row.values()):
            problems.append(f"{path} row {i}: non-finite value")
        elif row["epoch"] != i:
            problems.append(f"{path} row {i}: epoch {row['epoch']}")
        elif not (_is_accuracy(row["clean_acc"])
                  and _is_accuracy(row["pgd_acc"])):
            problems.append(f"{path} row {i}: accuracy outside [0, 1]")
        elif clean_equals_robust and row["clean_acc"] != row["pgd_acc"]:
            problems.append(f"{path} row {i}: robust != clean at eps 0")
    return problems


def check_accuracies(obj, where):
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    return [f"{where}: {key} = {obj.get(key)!r}"
            for key in ("clean_acc", "pgd_acc")
            if not _is_accuracy(obj.get(key))]


def check_summary(path, seeds, printed):
    """summary.json parses, holds one entry per seed with accuracies in
    [0, 1], and matches what `twins-lab run` printed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    if not isinstance(summary, dict):
        return [f"{path}: not an object"]
    if sorted(summary) != sorted(str(s) for s in seeds):
        return [f"{path}: seeds {sorted(summary)}"]
    problems = []
    for seed, entry in summary.items():
        problems += check_accuracies(entry, f"{path} seed {seed}")
    try:
        if json.loads(printed) != summary:
            problems.append(f"{path}: differs from the printed results")
    except ValueError:
        problems.append("run: printed results are not JSON")
    return problems


def check_eval_output(printed, checkpoint):
    try:
        result = json.loads(printed)
    except ValueError:
        return ["eval: output is not JSON"]
    problems = check_accuracies(result, "eval")
    if isinstance(result, dict) and result.get("checkpoint") != checkpoint:
        problems.append(f"eval: reports checkpoint "
                        f"{result.get('checkpoint')!r}")
    return problems


def check_checkpoint(path, load_checkpoint, stage, method):
    """The checkpoint reloads and carries the expected stage and method."""
    try:
        _, meta = load_checkpoint(path)
    except Exception as exc:  # any failure to reload is a failed output
        return [f"{path}: does not reload ({type(exc).__name__}: {exc})"]
    if (meta.get("stage"), meta.get("method")) != (stage, method):
        return [f"{path}: stage/method {meta.get('stage')!r}/"
                f"{meta.get('method')!r}"]
    return []


def digest(directory, texts):
    """SHA-256 over every file under `directory` (relative path and bytes,
    in sorted order) and the given texts."""
    h = hashlib.sha256()
    files = []
    if os.path.isdir(directory):
        for base, _, names in os.walk(directory):
            files += [os.path.join(base, n) for n in names]
    for path in sorted(files):
        h.update(os.path.relpath(path, directory).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()
