"""Static FLOPs and storage accounting for architecture descriptions.

Counting rules (the only rules consistent with the reference cost tables):

* FLOPs count multiply-accumulate applications of weights in one forward
  pass: ``H_out * W_out * C_in * C_out * K^2`` for a standard convolution,
  ``in * out`` for a linear layer, the per-branch sums for the compact
  blocks. Bias adds, batch norm, activations, pooling and channelwise
  additions are excluded.
* Storage counts every parameter at 4 bytes (32-bit floats): conv/linear
  weights and biases plus 4 values per normalized channel (scale, shift,
  running mean, running variance). MB means 2^20 bytes. A compact block
  or residual projection counts as the sum of its layers: each conv's or
  depthwise conv's weights, bias and BN.
* ``gamma`` is the fully-connected share of storage:
  fc_params / (fc_params + conv_params).
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .arch import ArchSpec, TraceEntry
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
    def fc_params(self) -> int:
        return sum(l.params for l in self.layers if l.is_fc)

    @property
    def conv_params(self) -> int:
        return sum(l.params for l in self.layers if not l.is_fc)

    @property
    def gamma(self) -> float:
        total = self.total_params
        if total == 0:
            raise ArchError("gamma undefined for an architecture with no parameters")
        return self.fc_params / total

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


# -- per-parameter counts ----------------------------------------------------
# One rule per layer; a block's count sums its layers' in the order
# ``blocks.py`` builds them.

def _conv_params(c_in: int, c_out: int, k: int, bias: bool = True,
                 bn: bool = True) -> int:
    """A K x K conv's weights, its bias and the BN after it."""
    n = c_out * c_in * k * k
    if bias:
        n += c_out
    if bn:
        n += BN_VALUES_PER_CHANNEL * c_out
    return n


def _depthwise_params(c: int, k: int) -> int:
    """A depthwise K x K conv's weights, its bias and the BN after it."""
    return c * k * k + c + BN_VALUES_PER_CHANNEL * c


def _dsconv_params(c_in: int, c_out: int, k: int) -> int:
    return _depthwise_params(c_in, k) + _conv_params(c_in, c_out, 1)


def _parconv_params(c_in: int, c_out: int, k: int, omega: float | None,
                    alpha: float) -> int:
    a, e, b = parconv_widths(c_in, alpha, omega)
    expand = 0 if omega is None else _conv_params(a, e, 1)
    return (expand + _depthwise_params(e, k)
            + _conv_params(e, c_out, 1, bn=False)      # pw_project
            + _conv_params(b, c_out, 1))               # branch_b, then post_bn


# -- the analyzer -------------------------------------------------------------

_SKIP_REPORT = ("tap", "flatten", "relu")


def _entry_cost(te: TraceEntry) -> LayerCost | None:
    if te.kind in _SKIP_REPORT:
        return None
    f = te.fields
    # channels, or features once flat; the output's spatial size
    c_in, c_out = te.in_state[1], te.out_state[1]
    ho, wo = te.out_state[2:] if te.out_state[0] == "map" else (1, 1)
    if te.kind == "conv":
        k = f["kernel"]
        cfg = f"F:{c_out}, K:{k}x{k}, S:{f['stride']}, P:{f['padding']}"
        return LayerCost(te.name, "conv", cfg, te.spatial,
                         conv_flops(ho, wo, c_in, c_out, k),
                         _conv_params(c_in, c_out, k, f["bias"], f["bn"]), False)
    if te.kind == "dsconv":
        k = f["kernel"]
        return LayerCost(te.name, "dsconv", f"F:{c_out}, K:{k}x{k}", te.spatial,
                         dsconv_flops(ho, wo, c_in, c_out, k),
                         _dsconv_params(c_in, c_out, k), False)
    if te.kind in ("parconv", "sparconv"):
        spec = te.parconv
        variant = (f"split:{spec.alpha:g}" if spec.omega is None
                   else f"omega:{spec.omega:g}")
        cfg = f"F:{c_out}, K:{spec.kernel}x{spec.kernel}, {variant}"
        return LayerCost(te.name, te.kind, cfg, te.spatial,
                         parconv_flops_realized(ho, wo, c_in, c_out, spec.kernel,
                                                spec.omega, spec.alpha),
                         _parconv_params(c_in, c_out, spec.kernel, spec.omega,
                                         spec.alpha), False)
    if te.kind == "maxpool":
        cfg = f"K:{f['window']}x{f['window']}, S:{f['stride']}"
        return LayerCost(te.name, "maxpool", cfg, te.spatial, 0, 0, False)
    if te.kind == "batchnorm":
        return LayerCost(te.name, "batchnorm", f"F:{c_in}", te.spatial, 0,
                         BN_VALUES_PER_CHANNEL * c_in, False)
    if te.kind == "linear":
        params = c_in * c_out + (c_out if f["bias"] else 0)
        return LayerCost(te.name, "linear", f"{c_in}x{c_out}", "1x1",
                         linear_flops(c_in, c_out), params, True)
    if te.kind == "bottleneck_head":
        m, b, o = c_in, f["bottleneck_dim"], c_out
        params = m * b + b + b * o + o
        return LayerCost(te.name, "bottleneck_head", f"{m}x{b}x{o}", "1x1",
                         bottleneck_flops(m, b, o), params, True)
    if te.kind == "residual":
        flops = 0
        params = 0
        kinds = []
        for sub in te.body:
            c = _entry_cost(sub)
            if c is not None:
                flops += c.flops
                params += c.params
                if c.kind != "maxpool":
                    kinds.append(c.kind)
        cfg = "residual[" + ",".join(kinds) + "]"
        if c_in != c_out or te.skip_stride != 1:
            flops += conv_flops(ho, wo, c_in, c_out, 1)
            params += _conv_params(c_in, c_out, 1)
            cfg += "+proj"
        return LayerCost(te.name, "residual", cfg, te.spatial, flops, params, False)
    raise ArchError(f"no cost rule for layer type {te.kind!r}")


def analyze(arch: ArchSpec) -> CostReport:
    """Per-layer and total FLOPs/storage of ``arch``, which it validates once."""
    return _report(arch, arch.validate())


def _report(arch: ArchSpec, trace: list[TraceEntry]) -> CostReport:
    """The cost report of ``arch`` from its ``validate()`` trace: how a caller
    that already holds the trace analyzes without validating again."""
    layers = [LayerCost("input", "input",
                        f"{arch.in_channels}x{arch.in_height}x{arch.in_width}",
                        f"{arch.in_height}x{arch.in_width}", 0, 0, False)]
    for te in trace:
        cost = _entry_cost(te)
        if cost is not None:
            layers.append(cost)
    return CostReport(layers)


def gamma(arch: ArchSpec) -> float:
    """Fully-connected storage share of the whole network."""
    return analyze(arch).gamma


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
