"""Span recorder for traced benchmark runs.

Spans are recorded from the benchmark's own side of the calls into
`twins_lab`: every wrapped public function is replaced, in every
`twins_lab` module that imported it by name, by a wrapper that opens a
span, calls the original and closes the span. `Tensor.backward` and
`MiniCNN.forward` are wrapped on their classes. `uninstall` puts every
original back; `snapshot`/`replaced_since` verify that it did, and that
an untraced run replaced nothing.
"""

import functools
import os
import statistics
import sys
import time


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "trace", "attrs")

    def __init__(self, id, parent, name, start, end=0, trace=None,
                 attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.trace = trace
        self.attrs = attrs

    def as_list(self):
        return [self.id, self.parent, self.name, self.start, self.end,
                self.trace, self.attrs]


class Recorder:
    """In-memory span list; `trace` is the id stamped on new spans (one
    per CLI command)."""

    def __init__(self):
        self.spans = []
        self.trace = None
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(),
                    trace=self.trace)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans.

    `spans` must be in start order, as a Recorder appends them.
    """
    out = {s.id: s.end - s.start for s in spans}
    by_id = {s.id: s for s in spans}
    reach = {}  # parent id -> latest instant already counted as covered
    for s in spans:
        if s.parent is None:
            continue
        p = by_id[s.parent]
        lo = max(s.start, p.start, reach.get(p.id, p.start))
        hi = min(s.end, p.end)
        if hi > lo:
            out[p.id] -= hi - lo
        reach[p.id] = max(reach.get(p.id, p.start), hi)
    return out


# -- wrapped names ---------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_flop(args, kwargs, result):
    # 2 * N * O * Ho * Wo * (C * kh * kw) multiply-adds
    _, c, kh, kw = args[1].data.shape
    return {"flop": 2 * result.data.size * c * kh * kw}


def _wgrad_flop(args, kwargs, result):
    x, grad_out, kh, kw = args[:4]
    return {"flop": 2 * grad_out.size * x.shape[1] * kh * kw}


def _pgd_steps(args, kwargs, result):
    cfg = _arg(args, kwargs, 4, "cfg")
    return {"steps": cfg.steps if cfg.epsilon != 0.0 else 0}


def _spec_key(args, kwargs, result):
    return {"spec": repr(_arg(args, kwargs, 0, "spec"))}


def _ckpt_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _by_mode(prefix):
    return lambda args, kwargs: f"{prefix}.{_arg(args, kwargs, 2, 'mode').value}"


def _by_method(args, kwargs):
    return f"training.batch_loss.{_arg(args, kwargs, 3, 'cfg').method}"


# (owner inside twins_lab, attribute, span name or name(args, kwargs),
#  attrs(args, kwargs, result) or None)
TARGETS = (
    ("tensor", "conv2d", "tensor.conv2d", _conv_flop),
    ("tensor", "conv2d_weight_grad", "tensor.conv2d_weight_grad",
     _wgrad_flop),
    ("tensor.Tensor", "backward", "tensor.backward", None),
    ("tensor", "backprop", "tensor.backprop", None),
    ("tensor", "softmax_cross_entropy", "tensor.softmax_cross_entropy", None),
    ("tensor", "kl_div_logits", "tensor.kl_div_logits", None),
    ("network.MiniCNN", "forward", _by_mode("network.forward"), None),
    ("network", "bn_forward", _by_mode("network.bn_forward"), None),
    ("network", "bn_update_running", "network.bn_update_running", None),
    ("attack", "pgd_attack", "attack.pgd_attack", _pgd_steps),
    ("attack", "project_linf", "attack.project_linf", None),
    ("training", "run_training", "training.run_training", None),
    ("training", "batch_loss", _by_method, None),
    ("training", "sgd_update", "training.sgd_update", None),
    ("training", "warmup_bn", "training.warmup_bn", None),
    ("analysis", "evaluate", "analysis.evaluate", None),
    ("data", "load_dataset", "data.load_dataset", _spec_key),
    ("data", "load_idx", "data.load_idx", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint",
     _ckpt_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("experiment", "run_experiment", "experiment.run_experiment", None),
    ("experiment", "run_pretrain", "experiment.run_pretrain", None),
    ("experiment", "run_finetune", "experiment.run_finetune", None),
    ("experiment", "write_metrics", "experiment.write_metrics", None),
    ("cli", "main", "cli.main", None),
)


def _wrap(fn, recorder, name, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name if isinstance(name, str)
                              else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result
    return wrapper


def _lab_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "twins_lab" or n.startswith("twins_lab.")]


def _owner(path):
    module, _, cls = path.partition(".")
    obj = sys.modules[f"twins_lab.{module}"]
    return getattr(obj, cls) if cls else obj


def install(recorder):
    """Replace every target by its wrapper wherever it is bound by name;
    returns the (holder, attribute, original) list `uninstall` takes."""
    patched = []
    modules = _lab_modules()
    for owner_path, attr, name, attrs in TARGETS:
        owner = _owner(owner_path)
        original = vars(owner)[attr]
        wrapper = _wrap(original, recorder, name, attrs)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patched.append((holder, key, original))
    return patched


def uninstall(patched):
    for holder, key, original in reversed(patched):
        setattr(holder, key, original)


def snapshot():
    """Every attribute of every twins_lab module and of every class they
    define, by identity."""
    out = {}
    for module in _lab_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if (isinstance(value, type)
                    and value.__module__ == module.__name__):
                for ckey, cvalue in vars(value).items():
                    out[(f"{module.__name__}.{key}", ckey)] = cvalue
    return out


def replaced_since(before):
    """Names whose binding differs from the `before` snapshot."""
    after = snapshot()
    keys = set(before) | set(after)
    return sorted(".".join(k) for k in keys
                  if k not in before or k not in after
                  or before[k] is not after[k])


# -- per-layer metrics -------------------------------------------------------

METHODS = ("std", "at", "twins-at", "twins-trades")
MODES = ("adaptive", "frozen", "inference")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def tail_percentile(samples):
    """(p50, highest listed percentile with >= 10 samples beyond it, that
    percentile). With fewer than 20 samples the tail is the p50 itself."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    pick = lambda p: ordered[min(n - 1, int(n * p / 100))]
    for p in TAIL_PERCENTILES:
        if n - int(n * p / 100) - 1 >= 10:
            return pick(50), pick(p), p
    return pick(50), pick(50), 50


def per_pass_counts(spans, passes):
    """Pass -> {span name: calls}; the pass is the trace id's prefix."""
    out = {p: {} for p in passes}
    for s in spans:
        counts = out[s.trace.split(".")[0]]
        counts[s.name] = counts.get(s.name, 0) + 1
    return out


def layer_metrics(spans, passes):
    """Per-layer metrics, each averaged over the traced passes.

    `spans` come from passes whose trace ids start with one of `passes`.
    Counts repeat exactly from pass to pass; times are mean per pass.
    """
    n = len(passes)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls, total, own = {}, {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0) + s.end - s.start
        own[s.name] = own.get(s.name, 0) + selfs[s.id]

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name)

    def under(span, ancestor):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    def ms(table, name):
        return table.get(name, 0) / n / 1e6

    def count(name):
        return calls.get(name, 0) / n

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    # tensor
    conv_flop = attr_sum("tensor.conv2d", "flop")
    put("tensor.conv2d.calls", count("tensor.conv2d"), "count")
    put("tensor.conv2d.self_ms", ms(own, "tensor.conv2d"), "ms")
    put("tensor.conv2d.gflop", conv_flop / n / 1e9, "GFLOP")
    conv_s = own.get("tensor.conv2d", 0) / 1e9
    put("tensor.conv2d.gflop_per_s",
        conv_flop / 1e9 / conv_s if conv_s else 0.0, "GFLOP/s")
    wgrads = [s for s in spans if s.name == "tensor.conv2d_weight_grad"]
    useful = sum(1 for s in wgrads if under(s, "tensor.backprop"))
    put("tensor.conv2d_weight_grad.calls", len(wgrads) / n, "count")
    put("tensor.conv2d_weight_grad.self_ms",
        ms(own, "tensor.conv2d_weight_grad"), "ms")
    put("tensor.conv2d_weight_grad.gflop",
        attr_sum("tensor.conv2d_weight_grad", "flop") / n / 1e9, "GFLOP")
    put("tensor.conv2d_weight_grad.useful_calls", useful / n, "count")
    put("tensor.conv2d_weight_grad.useful_ratio",
        useful / len(wgrads) if wgrads else 0.0, "ratio")
    put("tensor.backward.calls", count("tensor.backward"), "count")
    put("tensor.backward.self_ms", ms(own, "tensor.backward"), "ms")
    put("tensor.backprop.calls", count("tensor.backprop"), "count")
    put("tensor.backprop.ms", ms(total, "tensor.backprop"), "ms")
    for op in ("softmax_cross_entropy", "kl_div_logits"):
        put(f"tensor.{op}.calls", count(f"tensor.{op}"), "count")
        put(f"tensor.{op}.self_ms", ms(own, f"tensor.{op}"), "ms")

    # network
    for part in ("forward", "bn_forward"):
        for mode in MODES:
            name = f"network.{part}.{mode}"
            put(f"{name}.calls", count(name), "count")
            put(f"{name}.self_ms", ms(own, name), "ms")
    put("network.bn_update_running.calls",
        count("network.bn_update_running"), "count")

    # attack
    steps = attr_sum("attack.pgd_attack", "steps")
    put("attack.pgd_attack.calls", count("attack.pgd_attack"), "count")
    put("attack.pgd_attack.ms", ms(total, "attack.pgd_attack"), "ms")
    put("attack.pgd_attack.self_ms", ms(own, "attack.pgd_attack"), "ms")
    put("attack.pgd_steps", steps / n, "count")
    put("attack.pgd_step_ms",
        total.get("attack.pgd_attack", 0) / 1e6 / steps if steps else 0.0,
        "ms")
    put("attack.project_linf.calls", count("attack.project_linf"), "count")
    put("attack.project_linf.self_ms", ms(own, "attack.project_linf"), "ms")

    # training: a step runs from batch_loss entry to sgd_update exit; an
    # epoch ends where run_training calls evaluate
    step_ms, epoch_s = [], []
    step_start = None
    epoch_start = {}
    for s in spans:
        if s.name.startswith("training.batch_loss."):
            step_start = s.start
        elif s.name == "training.sgd_update" and step_start is not None:
            step_ms.append((s.end - step_start) / 1e6)
            step_start = None
        elif s.name == "training.run_training":
            epoch_start[s.id] = s.start
        elif (s.name == "analysis.evaluate" and s.parent in epoch_start):
            epoch_s.append((s.end - epoch_start[s.parent]) / 1e9)
            epoch_start[s.parent] = s.end
    p50, tail, pct = tail_percentile(step_ms)
    put("training.step_ms.p50", p50, "ms")
    put("training.step_ms.ptail", tail, "ms")
    put("training.step_ms.ptail_pct", pct, "percentile")
    put("training.step_ms.samples", len(step_ms), "count")
    for method in METHODS:
        put(f"training.batch_loss.{method}.self_ms",
            ms(own, f"training.batch_loss.{method}"), "ms")
    put("training.sgd_update.calls", count("training.sgd_update"), "count")
    put("training.sgd_update.self_ms", ms(own, "training.sgd_update"), "ms")
    put("training.warmup_bn.ms", ms(total, "training.warmup_bn"), "ms")
    put("training.epoch_s.p50",
        statistics.median(epoch_s) if epoch_s else 0.0, "s")
    put("training.epochs", len(epoch_s) / n, "count")

    # analysis
    put("analysis.evaluate.calls", count("analysis.evaluate"), "count")
    put("analysis.evaluate.ms", ms(total, "analysis.evaluate"), "ms")
    put("analysis.evaluate.self_ms", ms(own, "analysis.evaluate"), "ms")

    # data
    loads = count("data.load_dataset")
    distinct = len({(s.trace.split(".")[0], s.attrs["spec"]) for s in spans
                    if s.name == "data.load_dataset"}) / n
    put("data.load_dataset.calls", loads, "count")
    put("data.load_dataset.ms", ms(total, "data.load_dataset"), "ms")
    put("data.distinct_specs", distinct, "count")
    put("data.distinct_spec_ratio", distinct / loads if loads else 0.0,
        "ratio")
    put("data.load_idx.calls", count("data.load_idx"), "count")
    put("data.load_idx.ms", ms(total, "data.load_idx"), "ms")

    # checkpoint
    put("checkpoint.save_checkpoint.calls",
        count("checkpoint.save_checkpoint"), "count")
    put("checkpoint.save_checkpoint.ms",
        ms(total, "checkpoint.save_checkpoint"), "ms")
    put("checkpoint.save_checkpoint.bytes",
        attr_sum("checkpoint.save_checkpoint", "bytes") / n, "bytes")
    put("checkpoint.load_checkpoint.calls",
        count("checkpoint.load_checkpoint"), "count")
    put("checkpoint.load_checkpoint.ms",
        ms(total, "checkpoint.load_checkpoint"), "ms")

    # experiment / cli glue
    for fn in ("run_pretrain", "run_finetune", "write_metrics"):
        put(f"experiment.{fn}.ms", ms(total, f"experiment.{fn}"), "ms")
    put("experiment.self_ms",
        sum(v for k, v in own.items() if k.startswith("experiment."))
        / n / 1e6, "ms")
    put("cli.main.ms", ms(total, "cli.main"), "ms")
    put("cli.self_ms", ms(own, "cli.main"), "ms")
    return m
