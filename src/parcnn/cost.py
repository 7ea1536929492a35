"""Static FLOPs and storage accounting for architecture descriptions.

Counting rules (the only rules consistent with the reference cost tables).
Each entry counts as the sum of its layers, as ``arch.layers_of`` lists
them for the model builder too; a residual entry adds its body's entries.

* FLOPs count multiply-accumulate applications of weights in one forward
  pass, at the entry's output size: ``H_out * W_out * C_in * C_out * K^2``
  for a convolution (``C * K^2`` per position for a depthwise one),
  ``in * out`` for a linear layer. Bias adds, batch norm, activations,
  pooling, channel gathers and channelwise additions are excluded.
* Storage counts every parameter at 4 bytes (32-bit floats): conv/linear
  weights and biases plus 4 values per normalized channel (scale, shift,
  running mean, running variance). MB means 2^20 bytes.
* ``gamma`` is the fully-connected share of storage:
  fc_params / (fc_params + conv_params).

Each sum is worked out once: a trace entry keeps its (FLOPs, parameters)
on first use (``TraceEntry.cost_sums``), since a validated spec is sealed
and its trace never changes; later reports and gammas of the spec only add
up the kept sums.

The paper's closed forms of the compact blocks' FLOPs stay, as oracles.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .arch import ArchSpec, TraceEntry, layers_of
from .blocks import parconv_widths
from .errors import ArchError

BYTES_PER_VALUE = 4
MB = 1024 * 1024
BN_VALUES_PER_CHANNEL = 4


def round_half_away(x: float, ndigits: int) -> float:
    """Round with ties away from zero (printed-value comparisons)."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(x).quantize(q, rounding=ROUND_HALF_UP))


def params_mb(params: int) -> float:
    return params * BYTES_PER_VALUE / MB


@dataclass
class LayerCost:
    name: str
    kind: str
    config: str
    spatial: str
    flops: int
    params: int
    is_fc: bool

    @property
    def storage_mb(self) -> float:
        return params_mb(self.params)


@dataclass
class CostReport:
    layers: list[LayerCost]

    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_storage_mb(self) -> float:
        return params_mb(self.total_params)

    @property
    def gamma(self) -> float:
        return _share(sum(l.params for l in self.layers if l.is_fc), self.total_params)

    def flops_fraction(self, layer: LayerCost) -> float:
        total = self.total_flops
        return layer.flops / total if total else 0.0

    def storage_fraction(self, layer: LayerCost) -> float:
        total = self.total_params
        return layer.params / total if total else 0.0


# -- closed-form layer costs -------------------------------------------------

def conv_flops(d_out_h: int, d_out_w: int, c_in: int, c_out: int, k: int) -> int:
    """Standard convolution MACs at the *output* spatial size."""
    return d_out_h * d_out_w * c_in * c_out * k * k


def dsconv_flops(d_h: int, d_w: int, c_in: int, c_out: int, k: int) -> int:
    return d_h * d_w * (c_in * k * k + c_in * c_out)


def parconv_flops_realized(d_h: int, d_w: int, c_in: int, c_out: int, k: int,
                           omega: float | None, alpha: float = 0.5) -> int:
    """Two-branch block cost with the realized integer branch widths
    (omega None: no expanding pointwise conv)."""
    a, e, b = parconv_widths(c_in, alpha, omega)
    expand = 0 if omega is None else a * e
    return d_h * d_w * (expand + e * k * k + e * c_out + b * c_out)


def parconv_flops_continuous(d: int, c_in: int, c_out: int, k: int,
                             omega: float) -> float:
    """Closed form with real-valued widths (alpha = 0.5)."""
    half = c_in / 2.0
    exp = omega * half
    return d * d * (half * exp + exp * k * k + exp * c_out + half * c_out)


def linear_flops(n_in: int, n_out: int) -> int:
    return n_in * n_out


def bottleneck_flops(m: int, b: int, o: int) -> int:
    return m * b + b * o


def ratio_to_standard(kind: str, k: int, c_in: int, c_out: int,
                      omega: float | None = None) -> float:
    """FLOPs of a compact convolution divided by the standard convolution's."""
    if min(k, c_in, c_out) < 1 or (omega is not None and omega <= 0):
        raise ValueError("ratio arguments must be positive")
    if kind == "dsconv":
        return 1.0 / c_out + 1.0 / (k * k)
    if kind == "parconv":
        if omega is None:
            raise ValueError("parconv ratio needs omega")
        return 1.0 / (2 * k * k) + (omega / 2.0) * (
            1.0 / (k * k) + 1.0 / c_out + c_in / (2.0 * c_out * k * k))
    raise ValueError(f"unknown compact convolution kind {kind!r}")


def parconv_ratio_asymptotic(k: int, omega: float) -> float:
    """Limit of the parconv ratio for C_in = C_out >> K^2."""
    if k < 1 or omega < 0:
        raise ValueError("ratio arguments must be non-negative")
    return 1.0 / (2 * k * k) + 3.0 * omega / (4 * k * k)


# -- the analyzer -------------------------------------------------------------

_SKIP_REPORT = ("tap", "flatten", "relu")
_FC_KINDS = ("linear", "bottleneck_head")


def _layer_sums(layers: list[tuple]) -> tuple[int, int]:
    """(MACs per output position, parameters) of a layer list: one rule per
    kind of layer, summed."""
    macs = params = 0
    for layer in layers:
        kind = layer[0]
        if kind == "conv":
            _, _, c_in, c_out, k, _, _, bias = layer
            weights = c_in * c_out * k * k
            macs += weights
            params += weights + (c_out if bias else 0)
        elif kind == "bn":
            params += BN_VALUES_PER_CHANNEL * layer[2]
        elif kind == "depthwise":
            _, _, c, k = layer
            macs += c * k * k
            params += c * k * k + c
        elif kind == "linear":
            _, _, n_in, n_out, bias = layer
            macs += n_in * n_out
            params += n_in * n_out + (n_out if bias else 0)
    return macs, params


def _config(te: TraceEntry) -> str:
    f, c_in, c_out = te.fields, te.in_state[1], te.out_state[1]
    if te.kind == "conv":
        k = f["kernel"]
        return f"F:{c_out}, K:{k}x{k}, S:{f['stride']}, P:{f['padding']}"
    if te.kind == "dsconv":
        return f"F:{c_out}, K:{f['kernel']}x{f['kernel']}"
    if te.kind in ("parconv", "sparconv"):
        spec = te.parconv
        variant = (f"split:{spec.alpha:g}" if spec.omega is None
                   else f"omega:{spec.omega:g}")
        return f"F:{c_out}, K:{spec.kernel}x{spec.kernel}, {variant}"
    if te.kind == "maxpool":
        return f"K:{f['window']}x{f['window']}, S:{f['stride']}"
    if te.kind == "batchnorm":
        return f"F:{c_in}"
    if te.kind == "linear":
        return f"{c_in}x{c_out}"
    if te.kind == "bottleneck_head":
        return f"{c_in}x{f['bottleneck_dim']}x{c_out}"
    # a residual entry: its body's reported kinds, and whether it projects
    kinds = [sub.kind for sub in te.body if sub.kind not in _SKIP_REPORT + ("maxpool",)]
    return "residual[" + ",".join(kinds) + "]" + ("+proj" if layers_of(te) else "")


def _entry_sums(te: TraceEntry) -> tuple[int, int]:
    """(FLOPs, parameters) of trace entry ``te``, its residual body's
    included. Worked out on first use and kept on ``te``, which a sealed
    spec never changes."""
    if te.cost_sums is None:
        macs, params = _layer_sums(layers_of(te))
        # the output's spatial size
        ho, wo = te.out_state[2:] if te.out_state[0] == "map" else (1, 1)
        flops = ho * wo * macs
        for sub in te.body or ():
            sub_flops, sub_params = _entry_sums(sub)
            flops += sub_flops
            params += sub_params
        te.cost_sums = flops, params
    return te.cost_sums


def _entry_cost(te: TraceEntry) -> LayerCost | None:
    if te.kind in _SKIP_REPORT:
        return None
    # the sums first: they raise ArchError for a kind with no layer list
    flops, params = _entry_sums(te)
    return LayerCost(te.name, te.kind, _config(te), te.spatial, flops, params,
                     te.kind in _FC_KINDS)


def analyze(arch: ArchSpec) -> CostReport:
    """Per-layer and total FLOPs/storage of ``arch``, from its ``validate()``
    trace (kept, so walked only if ``arch`` was not validated before)."""
    layers = [LayerCost("input", "input",
                        f"{arch.in_channels}x{arch.in_height}x{arch.in_width}",
                        f"{arch.in_height}x{arch.in_width}", 0, 0, False)]
    for te in arch.validate():
        cost = _entry_cost(te)
        if cost is not None:
            layers.append(cost)
    return CostReport(layers)


def gamma(arch: ArchSpec) -> float:
    """Fully-connected storage share of the whole network."""
    return _share(*_param_split(arch.validate()))


def _param_split(trace: tuple[TraceEntry, ...]) -> tuple[int, int]:
    """(fully-connected, all) parameters of a ``validate()`` trace: how a
    caller that holds the trace reads gamma without a whole report."""
    fc = total = 0
    for te in trace:
        params = _entry_sums(te)[1]
        total += params
        if te.kind in _FC_KINDS:
            fc += params
    return fc, total


def _share(fc: int, total: int) -> float:
    if total == 0:
        raise ArchError("gamma undefined for an architecture with no parameters")
    return fc / total


# -- rendering ----------------------------------------------------------------

def render_text(report: CostReport, title: str = "cost report") -> str:
    header = ("Layer", "Config", "Spatial", "FLOPs(x10^8)", "Frac", "Storage(MB)",
              "Frac")
    rows = [header]
    for l in report.layers:
        rows.append((
            l.name, l.config, l.spatial,
            f"{l.flops / 1e8:.4f}",
            f"{100 * report.flops_fraction(l):.2f}%",
            f"{l.storage_mb:.4f}",
            f"{100 * report.storage_fraction(l):.2f}%",
        ))
    rows.append((
        "total", "", "",
        f"{report.total_flops / 1e8:.4f}", "100.00%",
        f"{report.total_storage_mb:.4f}", "100.00%",
    ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [title, ""]
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append(f"total FLOPs   : {report.total_flops}")
    lines.append(f"total storage : {report.total_storage_mb:.4f} MB "
                 f"({report.total_params} parameters)")
    if report.total_params:
        lines.append(f"gamma (fc share of storage): {100 * report.gamma:.2f}%")
    return "\n".join(lines) + "\n"


def render_csv(report: CostReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", "config", "spatial", "flops", "flops_fraction",
                     "storage_mb", "storage_fraction"])
    for l in report.layers:
        writer.writerow([
            l.name, l.config, l.spatial, l.flops,
            f"{report.flops_fraction(l):.10f}",
            f"{l.storage_mb:.10f}",
            f"{report.storage_fraction(l):.10f}",
        ])
    writer.writerow(["total", "", "", report.total_flops, "1",
                     f"{report.total_storage_mb:.10f}", "1"])
    return buf.getvalue()
