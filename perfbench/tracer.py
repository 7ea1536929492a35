"""Span tracer for the parcnn benchmark.

The tracer wraps parcnn's public functions from the outside; no file of the
package changes. While installed it records one span per call:

* every public op of ``parcnn.tensor`` (forward), and the op's backward
  closure, by wrapping the ``_backward`` of the op's output;
* ``Tensor.backward`` (the sweep), ``Model.forward`` and each top-level
  layer's ``forward`` of every model built through ``arch.build_model``;
* ``SGDMomentum.step``, the loss functions of ``parcnn.distill``,
  ``data.batches`` (one span per batch handed out), ``data.make_synthetic``,
  ``ArchSpec.validate``, ``arch.build_model``, ``cost.analyze``,
  ``transform.transform_with_report``, and the three loops the workloads
  call: ``train_classifier``, ``distill_train`` and ``evaluate``.

A span is ``(id, parent id, name, start, end, context, layer, extra)``.
Spans stay in memory and are written out once, when the run ends.
``per_layer_metrics`` reduces them to the numbers named in BENCHMARK.json,
``layer_rows`` joins per-layer time with ``cost.analyze`` MACs, and
``check_macs`` checks the traced MAC counts against ``cost.analyze``.
"""
from __future__ import annotations

import gzip
import json
import time
import weakref
from collections import defaultdict

import numpy as np

from parcnn import arch as A
from parcnn import cost, data, distill, train, transform
from parcnn import tensor as T
from parcnn.tensor import Tensor

clock = time.perf_counter

# public tensor op -> the category it is reported under; conv2d is split
# into K x K and pointwise (K = 1) at call time
OP_CATEGORY = {
    "conv2d": "conv2d",
    "depthwise_conv2d": "depthwise_conv2d",
    "max_pool2d": "max_pool2d",
    "batch_norm2d": "batch_norm2d",
    "relu": "relu",
    "linear": "linear",
    "matmul": "linear",
    "softmax": "softmax",
    "log_softmax": "softmax",
    "narrow_channels": "channel_ops",
    "permute_channels": "channel_ops",
    "concat_channels": "channel_ops",
    "add": "elementwise",
    "sub": "elementwise",
    "mul": "elementwise",
    "div": "elementwise",
    "square": "elementwise",
    "sqrt": "elementwise",
    "exp": "elementwise",
    "log": "elementwise",
    "tsum": "elementwise",
    "reshape": "elementwise",
}
OP_KINDS = ("conv2d_kxk", "conv2d_pw", "depthwise_conv2d", "max_pool2d",
            "batch_norm2d", "relu", "linear", "softmax", "channel_ops",
            "elementwise")
MAC_OPS = ("conv2d_kxk", "conv2d_pw", "depthwise_conv2d", "linear")
# top-level entry types the workloads build; the others (dsconv, sparconv,
# bottleneck_head, ...) are kept in the result file but not in BENCHMARK.json
BLOCK_KINDS = ("conv", "parconv", "residual", "maxpool", "linear")
MAC_BLOCKS = ("conv", "parconv", "residual", "linear")
LOSS_FUNCTIONS = ("attention_map", "spm", "spms_from_taps", "sp_loss",
                  "soft_cross_entropy", "cross_entropy", "kd_loss", "total_loss")
# loops that set the context every span inside them is filed under
CONTEXTS = ((train, "train_classifier", "train"),
            (distill, "distill_train", "distill"),
            (train, "evaluate", "evaluate"))


def _op_macs(name: str, args, out: Tensor) -> int:
    """Weight multiply-accumulates of one op call (the cost.py rule)."""
    if name == "conv2d":
        n, c_out, ho, wo = out.shape
        _, c_in, k, _ = args[1].shape
        return n * ho * wo * c_out * c_in * k * k
    if name == "depthwise_conv2d":
        n, c, ho, wo = out.shape
        k = args[1].shape[1]
        return n * ho * wo * c * k * k
    if name == "linear":
        return out.shape[0] * args[1].shape[1] * args[1].shape[0]
    if name == "matmul":
        return out.size * args[0].shape[-1]
    return 0


class _ModelInfo:
    """Role of a built model ("teacher", "student", ...) for the layer table."""

    def __init__(self, role: str):
        self.role = role


class Tracer:
    """Records spans around parcnn's public functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]          # span ids; 0 is the root
        self._next_id = 1
        self.context = ""          # "train", "distill", "evaluate" or ""
        self.layer = None          # (model info, layer name, kind) of the top-level layer
        # architectures of the traced models; the models themselves are held
        # weakly so a traced run frees them as the untraced one does
        self.models: list[tuple[_ModelInfo, A.ArchSpec]] = []
        self._infos: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []
        self._orig_validate = A.ArchSpec.validate

    # -- span bookkeeping -------------------------------------------------
    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, layer=None, extra=0) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, self.context, layer, extra))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------
    def _wrap_op(self, name: str, fn):
        tracer = self
        category = OP_CATEGORY[name]

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            layer = tracer.layer
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                raise
            t1 = clock()
            cat = category
            if name == "conv2d":
                cat = "conv2d_pw" if args[1].shape[2] == 1 else "conv2d_kxk"
            macs = _op_macs(name, args, out)
            tracer._close(sid, parent, f"op.{cat}.fwd", t0, t1, layer, macs)
            backward = out._backward
            if backward is not None:
                bwd_name = f"op.{cat}.bwd"

                def timed_backward(g):
                    bsid, bparent = tracer._open()
                    b0 = clock()
                    try:
                        backward(g)
                    finally:
                        tracer._close(bsid, bparent, bwd_name, b0, clock(), layer)

                out._backward = timed_backward
            return out

        return traced

    def _wrap_call(self, name: str, fn, context: str | None = None):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            prev = tracer.context
            if context is not None:
                tracer.context = context
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.context = prev
                tracer._close(sid, parent, name, t0, t1)

        return traced

    def _wrap_model_forward(self, fn):
        tracer = self

        def forward(model, x, training=False, taps=None):
            sid, parent = tracer._open()
            t0 = clock()
            try:
                return fn(model, x, training=training, taps=taps)
            finally:
                name = "model.forward.train" if training else "model.forward.eval"
                tracer._close(sid, parent, name, t0, clock(), None, x.shape[0])

        return forward

    def _wrap_backward(self, fn):
        tracer = self

        def backward(loss):
            nodes = _graph_size(loss)
            sid, parent = tracer._open()
            t0 = clock()
            try:
                return fn(loss)
            finally:
                tracer._close(sid, parent, "tensor.backward", t0, clock(), None, nodes)

        return backward

    def _wrap_batches(self, fn):
        tracer = self

        def batches(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._open()
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    tracer._stack.pop()
                    return
                except BaseException:
                    tracer._stack.pop()
                    raise
                tracer._close(sid, parent, "data.batch", t0, clock())
                yield item

        return batches

    def _wrap_build_model(self, fn):
        tracer = self

        def build_model(arch, seed=0):
            sid, parent = tracer._open()
            t0 = clock()
            try:
                model = fn(arch, seed=seed)
            finally:
                tracer._close(sid, parent, "arch.build_model", t0, clock())
            tracer.instrument(model)
            return model

        return build_model

    def instrument(self, model: A.Model) -> None:
        """Wrap the forward of each top-level layer of ``model``."""
        info = _ModelInfo(f"model{len(self.models)}")
        self.models.append((info, model.arch))
        self._infos[model] = info
        kinds = {te.name: te.kind for te in self._orig_validate(model.arch)}
        for name, layer in model.root.children:
            layer.forward = self._wrap_layer(layer.forward, (info, name, kinds[name]))

    def set_role(self, model: A.Model, role: str) -> None:
        self._infos[model].role = role

    def _wrap_layer(self, fn, key):
        tracer = self

        def forward(x, ctx):
            sid, parent = tracer._open()
            prev = tracer.layer
            tracer.layer = key
            t0 = clock()
            graph = False
            try:
                out = fn(x, ctx)
                graph = out.requires_grad
                return out
            finally:
                t1 = clock()
                tracer.layer = prev
                tracer._close(sid, parent, "layer.fwd", t0, t1, key,
                              (x.shape[0], graph))

        return forward

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "Tracer":
        for name in OP_CATEGORY:
            self._patch(T, name, self._wrap_op(name, getattr(T, name)))
        self._patch(Tensor, "backward", self._wrap_backward(Tensor.backward))
        self._patch(A.Model, "forward", self._wrap_model_forward(A.Model.forward))
        self._patch(A, "build_model", self._wrap_build_model(A.build_model))
        self._patch(A.ArchSpec, "validate",
                    self._wrap_call("arch.validate", A.ArchSpec.validate))
        self._patch(train.SGDMomentum, "step",
                    self._wrap_call("optimizer.step", train.SGDMomentum.step))
        for fname in LOSS_FUNCTIONS:
            self._patch(distill, fname,
                        self._wrap_call(f"loss.{fname}", getattr(distill, fname)))
        # train and distill bound ``batches`` at import; wrap each binding
        for module in (data, train, distill):
            self._patch(module, "batches", self._wrap_batches(module.batches))
        self._patch(data, "make_synthetic",
                    self._wrap_call("data.make_synthetic", data.make_synthetic))
        self._patch(cost, "analyze", self._wrap_call("cost.analyze", cost.analyze))
        self._patch(transform, "transform_with_report",
                    self._wrap_call("transform.transform",
                                    transform.transform_with_report))
        for module, fname, context in CONTEXTS:
            self._patch(module, fname,
                        self._wrap_call(f"{context}.call", getattr(module, fname),
                                        context))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------
    def write_spans(self, path) -> None:
        """One JSON list per line: id, parent, name, start, end, context, layer."""
        with gzip.open(path, "wt") as f:
            for sid, parent, name, t0, t1, ctx, layer, _ in self.spans:
                where = f"{layer[0].role}/{layer[1]}" if layer else ""
                f.write(json.dumps([sid, parent, name, round(t0, 7), round(t1, 7),
                                    ctx, where]) + "\n")


def _graph_size(loss: Tensor) -> int:
    """Number of tensors reachable from ``loss`` (the sweep's graph)."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Reduce the spans of ``rounds`` traced rounds to the per-layer metrics
    (ms are means per call, or per optimizer step for the train/distill
    breakdowns; op calls are per round)."""
    spans = tracer.spans
    total = defaultdict(float)
    count = defaultdict(int)
    macs = defaultdict(int)
    children = defaultdict(float)   # summed child time per parent span id
    for sid, parent, name, t0, t1, ctx, layer, extra in spans:
        d = t1 - t0
        children[parent] += d
        total[name] += d
        count[name] += 1
        total[(ctx, name)] += d
        count[(ctx, name)] += 1
        if name.startswith("op.") and name.endswith(".fwd"):
            macs[name] += extra
            if layer is not None:
                macs[("block", layer[2])] += extra
        elif name.endswith(".bwd") and layer is not None:
            total[("block.bwd", layer[2])] += d
        elif name == "layer.fwd":
            kind = layer[2]
            total[("block.fwd", kind)] += d
            count[("block.fwd", kind)] += 1
            count[("block.graph", kind)] += extra[1]

    m: dict[str, float] = {}
    for op in OP_KINDS:
        fwd, bwd = f"op.{op}.fwd", f"op.{op}.bwd"
        m[f"tensor.{op}.fwd_ms"] = 1e3 * _mean(total[fwd], count[fwd])
        m[f"tensor.{op}.bwd_ms"] = 1e3 * _mean(total[bwd], count[bwd])
        m[f"tensor.{op}.calls"] = _mean(count[fwd], rounds)
        if op in MAC_OPS:
            m[f"tensor.{op}.gmacs_per_s"] = 1e-9 * _mean(macs[fwd], total[fwd])
    sweeps = [(sid, t1 - t0, extra) for sid, _, name, t0, t1, _, _, extra in spans
              if name == "tensor.backward"]
    m["tensor.backward.self_ms"] = 1e3 * _mean(
        sum(d - children[sid] for sid, d, _ in sweeps), len(sweeps))
    m["tensor.graph_nodes"] = _mean(sum(n for _, _, n in sweeps), len(sweeps))

    for kind in BLOCK_KINDS:
        m[f"blocks.{kind}.fwd_ms"] = 1e3 * _mean(total[("block.fwd", kind)],
                                                count[("block.fwd", kind)])
        m[f"blocks.{kind}.bwd_ms"] = 1e3 * _mean(total[("block.bwd", kind)],
                                                count[("block.graph", kind)])
        if kind in MAC_BLOCKS:
            m[f"blocks.{kind}.gmacs_per_s"] = 1e-9 * _mean(
                macs[("block", kind)], total[("block.fwd", kind)])

    # train / distill step breakdowns: per optimizer step of that loop; the
    # loss is every loss function or op called directly by the loop
    loops = {"train.call": "train", "distill.call": "distill"}
    loop_ids = {sid: loops[name] for sid, _, name, _, _, _, _, _ in spans
                if name in loops}
    loss_time = defaultdict(float)
    for sid, parent, name, t0, t1, ctx, layer, extra in spans:
        if parent in loop_ids and name.startswith(("loss.", "op.")):
            loss_time[loop_ids[parent]] += t1 - t0
    for ctx in ("train", "distill"):
        steps = count[(ctx, "optimizer.step")]
        per_step = {
            "backward_ms": total[(ctx, "tensor.backward")],
            "optimizer_ms": total[(ctx, "optimizer.step")],
            "loss_ms": loss_time[ctx],
        }
        if ctx == "train":
            per_step["forward_ms"] = total[(ctx, "model.forward.train")]
        else:
            per_step["teacher_forward_ms"] = total[(ctx, "model.forward.eval")]
            per_step["student_forward_ms"] = total[(ctx, "model.forward.train")]
        for key, seconds in per_step.items():
            m[f"{ctx}.{key}"] = 1e3 * _mean(seconds, steps)
    m["train.evaluate_ms"] = 1e3 * _mean(total["evaluate.call"], count["evaluate.call"])
    for metric, name in (("data.batch_wait_ms", "data.batch"),
                         ("data.make_synthetic_ms", "data.make_synthetic"),
                         ("arch.validate_ms", "arch.validate"),
                         ("arch.build_model_ms", "arch.build_model"),
                         ("cost.analyze_ms", "cost.analyze"),
                         ("transform.transform_ms", "transform.transform")):
        m[metric] = 1e3 * _mean(total[name], count[name])
    return m


def layer_rows(tracer: Tracer) -> dict[str, list[dict]]:
    """Per role, one row per top-level layer: forward/backward time, traced
    MACs per sample, ``cost.analyze`` MACs, achieved MAC/s and time share."""
    acc: dict[tuple, dict] = {}
    for _, _, name, t0, t1, _, layer, extra in tracer.spans:
        if layer is None:
            continue
        # models of one role (the two students) share rows
        key = (layer[0].role, layer[1], layer[2])
        row = acc.setdefault(key, {"fwd_s": 0.0, "bwd_s": 0.0, "calls": 0,
                                     "graph_calls": 0, "samples": 0, "macs": 0})
        if name == "layer.fwd":
            row["fwd_s"] += t1 - t0
            row["calls"] += 1
            row["graph_calls"] += extra[1]
            row["samples"] += extra[0]
        elif name.endswith(".bwd"):
            row["bwd_s"] += t1 - t0
        else:
            row["macs"] += extra
    static = {info.role: {l.name: l.flops for l in cost.analyze(arch).layers}
              for info, arch in tracer.models}
    tables: dict[str, list[dict]] = defaultdict(list)
    for (role, lname, kind), r in acc.items():
        tables[role].append({
            "layer": lname, "kind": kind,
            "fwd_ms": 1e3 * _mean(r["fwd_s"], r["calls"]),
            "bwd_ms": 1e3 * _mean(r["bwd_s"], r["graph_calls"]),
            "traced_macs": int(round(_mean(r["macs"], r["samples"]))),
            "static_macs": static[role].get(lname, 0),
            "gmacs_per_s": 1e-9 * _mean(r["macs"], r["fwd_s"]),
            "time_s": r["fwd_s"] + r["bwd_s"],
        })
    for rows in tables.values():
        whole = sum(r["time_s"] for r in rows)
        for r in rows:
            r["share"] = _mean(r.pop("time_s"), whole)
    return dict(tables)


def render_table(rows: list[dict]) -> str:
    header = ("layer", "kind", "fwd ms", "bwd ms", "MACs/sample", "GMAC/s", "share")
    lines = [header]
    for r in rows:
        lines.append((r["layer"], r["kind"], f"{r['fwd_ms']:.3f}", f"{r['bwd_ms']:.3f}",
                      f"{r['static_macs']:,}", f"{r['gmacs_per_s']:.3f}",
                      f"{100 * r['share']:.1f}%"))
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join("  ".join(c.rjust(w) if i > 1 else c.ljust(w)
                               for i, (c, w) in enumerate(zip(line, widths)))
                     for line in lines)


def check_macs(archs: dict[str, A.ArchSpec]) -> list[tuple[str, bool, str]]:
    """Trace a batch-1 forward of each architecture and compare the MACs of
    each top-level layer with ``cost.analyze``. Returns (name, ok, detail)."""
    results = []
    for name, spec in archs.items():
        tracer = Tracer()
        with tracer:
            model = A.build_model(spec, seed=0)
            x = np.zeros((1, spec.in_channels, spec.in_height, spec.in_width),
                         np.float32)
            model.forward(x, training=False)
        traced = defaultdict(int)
        for _, _, sname, _, _, _, layer, extra in tracer.spans:
            if layer is not None and sname.startswith("op.") and sname.endswith(".fwd"):
                traced[layer[1]] += extra
        report = cost.analyze(spec)
        expected = {l.name: l.flops for l in report.layers if l.kind != "input"}
        diffs = sorted(n for n in set(traced) | set(expected)
                       if traced.get(n, 0) != expected.get(n, 0))
        results.append((name, not diffs,
                        f"{sum(traced.values()):,} traced vs {report.total_flops:,} "
                        f"static MACs" + (f"; differ at {diffs[:3]}" if diffs else "")))
        del model
    return results
