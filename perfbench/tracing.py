"""Traced runs: spans around the calls into each lgpnet module.

``installed(tracer)`` rebinds every public function of every lgpnet module
to a timing wrapper, in every lgpnet module that holds a reference to it
(``model.py`` does ``from .tensor import conv1d``, for example), and
patches four methods on their classes.  The backward closure a tensor op
leaves on its output is wrapped too, so each op's backward time has its
own span.  Everything is restored on exit, so untraced runs execute the
unmodified code.

A span records its name, start, end and parent; spans stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = (
    "corpus", "lfcc", "gmm", "multiscale", "tensor", "model", "training", "evaluation",
    "config", "cli",
)
TENSOR_OPS = (
    "conv1d", "batchnorm1d", "relu", "add", "mul", "concat_channels", "mean_tensors",
    "max_pool_time", "linear", "softmax_cross_entropy",
)
METHODS = {
    ("model", "GroupedResNetEnsemble", "__call__"): "model.forward",
    ("model", "GroupedResNetEnsemble", "forward_slices"): "model.forward_slices",
    ("multiscale", "GroupAssignment", "index_lists"): "multiscale.index_lists",
    ("tensor", "Tensor", "_accumulate"): "tensor._accumulate",
}
EM_ORDER = 1024


class Tracer:
    """In-memory span recorder plus counters computed at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.meta: dict[int, int] = {}  # span index -> batch size of a model.forward
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def span(self, name, fn, args, kwargs, after=None):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.starts[idx] = t0
            self.ends[idx] = t1
        if after is not None:
            after(self, idx, args, result)
        return result

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, inclusive seconds, self seconds."""
        covered = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.duration(i)
        calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            d = self.duration(i)
            calls[name] += 1
            incl[name] += d
            self_s[name] += d - covered[i]
        return calls, incl, self_s

    def step_seconds(self, full_batch: int) -> list[float]:
        """Training steps (forward, loss, backward, Adam) of full_batch samples.

        A step runs from the start of a model.forward directly under
        training.run_epoch to the end of the adam_step that follows it.
        """
        per_epoch: dict[int, list[int]] = defaultdict(list)
        for i, (name, p) in enumerate(zip(self.names, self.parents)):
            if p >= 0 and self.names[p] == "training.run_epoch" and name in (
                "model.forward", "training.adam_step"
            ):
                per_epoch[p].append(i)
        steps = []
        for spans in per_epoch.values():
            fwd = [i for i in spans if self.names[i] == "model.forward"]
            adam = [i for i in spans if self.names[i] == "training.adam_step"]
            for f, a in zip(fwd, adam):
                if self.meta.get(f) == full_batch:
                    steps.append(self.ends[a] - self.starts[f])
        return steps

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")


# ---------------------------------------------------------------------------
# computed counters, taken where the work happens


def _wrap_backward(tracer: Tracer, out, name: str, flop_key: str | None = None, flop=0.0):
    fn = getattr(out, "_backward", None)
    if fn is None:
        return

    def traced_backward():
        tracer.span(name, fn, (), {})
        if flop_key is not None:
            tracer.counters[flop_key] += flop

    out._backward = traced_backward


def _op_after(op: str):
    def after(tracer, idx, args, out):
        _wrap_backward(tracer, out, f"tensor.{op}.bwd")
    return after


def _conv1d_after(tracer, idx, args, out):
    x, weight = args[0], args[1]
    n, c_in, _ = x.shape
    c_out, _, k = weight.shape
    flop = 2.0 * n * out.shape[2] * c_out * c_in * k  # one (N*T_out, C_in*k) @ (C_in*k, C_out)
    tracer.counters["conv1d.fwd.flop"] += flop
    n_grads = int(weight.requires_grad) + int(x.requires_grad)  # dW and dX matmuls
    _wrap_backward(tracer, out, "tensor.conv1d.bwd", "conv1d.bwd.flop", flop * n_grads)


def _linear_after(tracer, idx, args, out):
    x, weight = args[0], args[1]
    tracer.counters["linear.fwd.flop"] += 2.0 * x.shape[0] * weight.shape[0] * weight.shape[1]
    _wrap_backward(tracer, out, "tensor.linear.bwd")


def _lfcc_after(tracer, idx, args, out):
    clip = args[0]
    tracer.counters["lfcc.audio_s"] += clip.samples.size / clip.sample_rate


def _em_after(tracer, idx, args, out):
    gmm, cfg = args[0], args[2]
    if gmm.order == EM_ORDER:
        tracer.counters["em.k1024.s"] += tracer.duration(idx)
        tracer.counters["em.k1024.iters"] += cfg.n_iterations


def _features_after(tracer, idx, args, out):
    tracer.counters["features.bytes"] += out[0].nbytes


def _checkpoint_after(tracer, idx, args, out):
    tracer.counters["checkpoint.bytes"] = os.path.getsize(args[0])


def _forward_after(tracer, idx, args, out):
    tracer.meta[idx] = np.shape(args[1])[0]


AFTER = {
    **{f"tensor.{op}.fwd": _op_after(op) for op in TENSOR_OPS},
    "tensor.conv1d.fwd": _conv1d_after,
    "tensor.linear.fwd": _linear_after,
    "lfcc.lfcc_extract": _lfcc_after,
    "gmm.em_fit": _em_after,
    "multiscale.manifest_lgp_features": _features_after,
    "model.save_checkpoint": _checkpoint_after,
    "model.load_checkpoint": _checkpoint_after,
    "model.forward": _forward_after,
}


def _wrap(tracer: Tracer, name: str, fn):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs, after)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every public lgpnet function and the METHODS through tracer."""
    import lgpnet

    modules = {short: importlib.import_module(f"lgpnet.{short}") for short in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"tensor.{attr}.fwd" if short == "tensor" and attr in TENSOR_OPS else f"{short}.{attr}"
            wrappers[obj] = _wrap(tracer, name, obj)
    undo = []
    try:
        for mod in (lgpnet, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, _wrap(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def per_layer(tracer: Tracer, n_commands: int, full_batch: int) -> dict[str, dict]:
    """Per-layer metrics of a traced run.

    Seconds, call counts, FLOPs and feature sizes are per measured command,
    so they repeat from run to run whatever the number of commands.
    """
    calls, incl, self_s = tracer.totals()
    c = tracer.counters
    per = 1.0 / n_commands
    m: dict[str, dict] = {}

    def count(key: str, span: str):
        m[key] = metric(calls.get(span, 0) * per, "count")

    def secs(key: str, span: str, table=self_s):
        m[key] = metric(table.get(span, 0.0) * per, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    count("corpus.read_wav.calls", "corpus.read_wav")
    secs("corpus.read_wav.s", "corpus.read_wav")
    count("lfcc.lfcc_extract.calls", "lfcc.lfcc_extract")
    secs("lfcc.lfcc_extract.s", "lfcc.lfcc_extract")
    m["lfcc.audio_s_per_s"] = metric(
        ratio(c["lfcc.audio_s"], incl.get("lfcc.lfcc_extract", 0.0)), "audio-s/s"
    )
    secs("lfcc.fix_length.s", "lfcc.fix_length")

    count("gmm.em_fit.calls", "gmm.em_fit")
    secs("gmm.em_fit.s", "gmm.em_fit")
    m["gmm.em_fit.k1024.s_per_iter"] = metric(ratio(c["em.k1024.s"], c["em.k1024.iters"]), "s/iter")
    for fn in ("binary_split", "save_gmm", "load_gmm"):
        secs(f"gmm.{fn}.s", f"gmm.{fn}")
    count("gmm.lgp_transform.calls", "gmm.lgp_transform")
    secs("gmm.lgp_transform.s", "gmm.lgp_transform")

    secs("multiscale.manifest_lgp_features.s", "multiscale.manifest_lgp_features")
    m["multiscale.features_mb"] = metric(c["features.bytes"] * per / 1e6, "MB")
    span = "multiscale.extract_multiscale_lgp"
    m["multiscale.extract_multiscale_lgp.s_per_utt"] = metric(
        ratio(self_s.get(span, 0.0), calls.get(span, 0)), "s/utt"
    )
    secs("multiscale.lineage_grouping.s", "multiscale.lineage_grouping")
    count("multiscale.index_lists.calls", "multiscale.index_lists")
    secs("multiscale.index_lists.s", "multiscale.index_lists")
    secs("multiscale.load_bank.s", "multiscale.load_bank")

    for op in TENSOR_OPS:
        count(f"tensor.{op}.fwd.calls", f"tensor.{op}.fwd")
        secs(f"tensor.{op}.fwd.s", f"tensor.{op}.fwd")
        secs(f"tensor.{op}.bwd.s", f"tensor.{op}.bwd")
    m["tensor.conv1d.fwd.gflop"] = metric(c["conv1d.fwd.flop"] * per / 1e9, "GFLOP")
    m["tensor.linear.fwd.gflop"] = metric(c["linear.fwd.flop"] * per / 1e9, "GFLOP")
    m["tensor.conv1d.fwd.gflop_per_s"] = metric(
        ratio(c["conv1d.fwd.flop"] / 1e9, self_s.get("tensor.conv1d.fwd", 0.0)), "GFLOP/s"
    )
    secs("tensor.backward.self_s", "tensor.backward")
    count("tensor._accumulate.calls", "tensor._accumulate")
    secs("tensor._accumulate.s", "tensor._accumulate")
    m["tensor.conv1d.bwd.gflop"] = metric(c["conv1d.bwd.flop"] * per / 1e9, "GFLOP")
    m["tensor.conv1d.bwd.gflop_per_s"] = metric(
        ratio(c["conv1d.bwd.flop"] / 1e9, self_s.get("tensor.conv1d.bwd", 0.0)), "GFLOP/s"
    )

    secs("model.forward.s", "model.forward", incl)
    secs("model.slice.s", "model.forward")
    secs("model.save_checkpoint.s", "model.save_checkpoint")
    secs("model.load_checkpoint.s", "model.load_checkpoint")
    m["model.checkpoint_mb"] = metric(c["checkpoint.bytes"] / 1e6, "MB")

    steps = tracer.step_seconds(full_batch)
    m["training.step_s.p50"] = metric(np.percentile(steps, 50) if steps else 0.0, "s")
    m["training.step_s.p90"] = metric(np.percentile(steps, 90) if steps else 0.0, "s")
    for fn in ("adam_step", "ensemble_aware_loss", "run_epoch", "predict_logits"):
        secs(f"training.{fn}.s", f"training.{fn}")
    secs("training.train.self_s", "training.train")

    secs("evaluation.score_file_write.s", "evaluation.score_file_write")
    secs("evaluation.score_file_read.s", "evaluation.score_file_read")
    secs("evaluation.compute_eer_records.s", "evaluation.compute_eer_records")
    secs("cli.self_s", "cli.cli_main")
    secs("config.load_config.s", "config.load_config")
    return m


def largest_self_time(tracer: Tracer) -> list[tuple[str, float]]:
    """Span names by total self time, largest first."""
    _, _, self_s = tracer.totals()
    return sorted(self_s.items(), key=lambda kv: -kv[1])
