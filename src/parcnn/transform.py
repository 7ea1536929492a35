"""Turn a baseline architecture into a compact one.

The transformation has two independent steps, applied in order:

1. If the fully-connected share of storage (gamma) exceeds the policy
   threshold, shrink the head to a bottleneck of the requested dimension.
2. Replace the selected standard convolutions with compact blocks
   (ParConv by default), optionally wrapping each replacement in a
   residual connection.

Both steps choose what to change from the source's ``validate()`` trace,
reading each layer's resolved fields and input shape rather than its raw
entry. Each change maps a trace entry's name (unique in a validated spec)
to the new entries that replace it, and the result is one new spec: the
source's entries, copied as plain dicts, with those in place. Replaced
layers keep their names (an unnamed one its ``<type><index>`` name);
everything else is untouched, so the spatial/channel trace of the result
still validates and logits keep their shape.

The source keeps its trace (``ArchSpec.validate``), so the result is the
only spec a transform walks. Its convolutions are picked from the source's
trace even when the head changes: the head edit touches only ``linear``
and ``bottleneck_head`` entries, so no convolution moves.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from . import cost
from .arch import ArchSpec, TraceEntry, parconv_spec_of, walk_trace
from .errors import ArchError

log = logging.getLogger(__name__)

VARIANTS = ("parconv", "sparconv", "dsconv")
SELECTORS = ("interior", "residual_body", "all")


@dataclass
class DistillPolicy:
    """How to compact an architecture.

    ``replace_selector`` is one of the named rules ("interior" keeps the
    first and last convolution and any 1x1 convolution standard;
    "residual_body" targets convolutions inside residual blocks; "all"
    targets every convolution) or an explicit comma-separated list of layer
    names. Only a shape-preserving convolution with an odd K>=3 whose input
    the chosen block can take is replaced: a rule skips the others (a
    ParConv block needs an even channel count and both branches non-empty,
    so a 1-channel stem stays standard), and a named one raises ArchError
    saying why.
    """

    threshold: float = 0.1
    bottleneck_dim: int = 50
    omega: float = 0.5
    variant: str = "parconv"
    residual: bool = False
    replace_selector: str = "interior"

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie in (0, 1)")
        if self.bottleneck_dim < 1:
            raise ValueError("bottleneck_dim must be >= 1")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


def _obstacle(te: TraceEntry, policy: DistillPolicy) -> str | None:
    """Why the policy's block cannot stand in for conv ``te``, or None."""
    k, stride, padding = te.fields["kernel"], te.fields["stride"], te.fields["padding"]
    # the block (after a stride-2 pool) must give the conv's output size
    if k < 3 or k % 2 == 0 or stride not in (1, 2) or padding != (k - 1) // 2:
        return "cannot be replaced shape-preservingly"
    if policy.variant != "dsconv":
        try:
            parconv_spec_of(_compact_entry(te, policy), te.in_state[1])
        except ValueError as exc:
            return f"cannot be replaced by a {policy.variant} block: {exc}"
    return None


def select_replacements(trace: tuple[TraceEntry, ...],
                        policy: DistillPolicy) -> list[TraceEntry]:
    """Resolve the policy's selector, over a ``validate()`` trace, to the
    trace entries of the convs to replace, in arch order. Finding none on a
    plain network is an ArchError that names a rule's first conv's obstacle."""
    convs = [(te, inside) for te, inside in walk_trace(trace) if te.kind == "conv"]
    selector = policy.replace_selector
    if selector in SELECTORS:
        if selector == "interior":
            convs = convs[1:-1]
        elif selector == "residual_body":
            convs = [(te, inside) for te, inside in convs if inside]
        picked = [te for te, _ in convs if _obstacle(te, policy) is None]
    else:
        wanted = {name.strip() for name in selector.split(",") if name.strip()}
        picked = []
        for te, _ in convs:
            if te.name in wanted:
                obstacle = _obstacle(te, policy)
                if obstacle is not None:
                    raise ArchError(f"layer {te.name!r} {obstacle}")
                picked.append(te)
        missing = wanted - {te.name for te in picked}
        if missing:
            raise ArchError(f"selector names not found: {sorted(missing)}")
    # re-running on an already-compact architecture is a no-op, but a
    # selector that finds nothing on a plain network is a misconfiguration
    if not picked and not any(te.kind in VARIANTS for te, _ in walk_trace(trace)):
        first = convs[0][0] if convs and selector in SELECTORS else None
        why = f"; {first.name} {_obstacle(first, policy)}" if first else ""
        raise ArchError(f"selector {selector!r} matched no replaceable "
                        f"convolutions{why}")
    return picked


def _compact_entry(conv: TraceEntry, policy: DistillPolicy) -> dict:
    block = {"type": policy.variant, "out_channels": conv.fields["out_channels"],
             "kernel": conv.fields["kernel"]}
    if policy.variant == "parconv":
        block["omega"] = policy.omega
    block["name"] = conv.name
    return block


def _replacement(conv: TraceEntry, policy: DistillPolicy) -> list[dict]:
    """The entries that stand in for ``conv``."""
    block = _compact_entry(conv, policy)
    if policy.residual:
        inner = dict(block)
        inner["name"] = f"{conv.name}_block"
        block = {"type": "residual", "name": conv.name, "body": [inner],
                 "post_relu": False}
    replacement = [block]
    if conv.fields["stride"] == 2:
        # compact blocks are stride-1; downsample first
        pool = {"type": "maxpool", "name": f"{conv.name}_pool", "window": 3,
                "stride": 2, "padding": 1}
        if policy.residual:
            block["body"].insert(0, pool)
        else:
            replacement = [pool, block]
    return replacement


def apply_bottleneck(arch: ArchSpec, bottleneck_dim: int) -> ArchSpec:
    """Insert or resize the pre-output bottleneck; the rest is untouched.
    The result is a new, validated spec."""
    return _rewrite(arch, _head_edits(arch, bottleneck_dim))


def _head_edits(arch: ArchSpec, bottleneck_dim: int) -> dict[str, list[dict]]:
    """The edit that inserts or resizes ``arch``'s pre-output bottleneck."""
    if bottleneck_dim < 1:
        raise ArchError("bottleneck dimension must be >= 1")
    head = [te for te in arch.validate() if te.kind in ("linear", "bottleneck_head")]
    if not head:
        raise ArchError("architecture has no linear head to bottleneck")
    last = head[-1]
    if last.kind == "bottleneck_head":
        te, key = last, "bottleneck_dim"
    elif len(head) >= 2 and head[-2].kind == "linear":
        te, key = head[-2], "out_features"
    else:
        return {last.name: [{"type": "bottleneck_head", "name": last.name,
                             "bottleneck_dim": bottleneck_dim,
                             "out_features": last.fields["out_features"]}]}
    return {te.name: [{**arch.layers[te.index], key: bottleneck_dim}]}


def _rewrite(arch: ArchSpec, edits: dict[str, list[dict]]) -> ArchSpec:
    """A new, validated spec: ``arch``'s entries as plain dicts, each entry
    whose trace name ``edits`` holds replaced by the entries it maps to."""
    def edited(entries, trace: tuple[TraceEntry, ...]):
        for entry, te in zip(entries, trace):
            if te.name in edits:
                yield from edits[te.name]
            elif te.body is None:
                yield dict(entry)
            else:
                yield {**entry, "body": list(edited(entry["body"], te.body))}
    new = ArchSpec(arch.in_channels, arch.in_height, arch.in_width,
                   list(edited(arch.layers, arch.validate())))
    new.validate()
    return new


@dataclass
class TransformResult:
    arch: ArchSpec
    gamma_before: float
    gamma_after_head: float
    head_changed: bool
    replaced: int


def distill_architecture(arch: ArchSpec, policy: DistillPolicy) -> ArchSpec:
    """Algorithm: analyze gamma, bottleneck the head if above threshold,
    then swap the selected convolutions for compact blocks."""
    return transform_with_report(arch, policy).arch


def transform_with_report(arch: ArchSpec, policy: DistillPolicy) -> TransformResult:
    """``distill_architecture`` and what it did. The head edit and the
    convolutions to replace come from the kept trace of ``arch``, and the
    one spec they make is the only one walked."""
    trace = arch.validate()
    fc_before, total_before = cost._param_split(trace)
    gamma_before = gamma_after = cost._share(fc_before, total_before)
    head_changed = gamma_before > policy.threshold
    edits = _head_edits(arch, policy.bottleneck_dim) if head_changed else {}
    picked = select_replacements(trace, policy)
    edits.update((conv.name, _replacement(conv, policy)) for conv in picked)
    new = _rewrite(arch, edits)
    if head_changed:
        # exactly gamma of the bottlenecked source: the head edit moves only
        # fully-connected parameters, the replacements only the others
        fc_after = cost._param_split(new.validate())[0]
        gamma_after = cost._share(fc_after, fc_after + total_before - fc_before)
        if gamma_after > policy.threshold:
            log.warning("bottleneck dim %d only reaches gamma=%.4f (> threshold %.4f)",
                        policy.bottleneck_dim, gamma_after, policy.threshold)
    return TransformResult(new, gamma_before, gamma_after, head_changed, len(picked))


def render_diff(before: ArchSpec, after: ArchSpec, result: TransformResult) -> str:
    """Side-by-side cost summary of a transformation."""
    rb = cost.analyze(before)
    ra = cost.analyze(after)
    lines = ["architecture transformation", "",
             f"gamma before head change : {100 * result.gamma_before:.2f}%",
             f"gamma after head change  : {100 * result.gamma_after_head:.2f}%"
             + ("" if result.head_changed else " (head untouched)"),
             f"convolutions replaced    : {result.replaced}",
             ""]
    lines.append(f"{'':14s}{'before':>16s}{'after':>16s}{'ratio':>8s}")
    lines.append(f"{'FLOPs':14s}{rb.total_flops:>16d}{ra.total_flops:>16d}"
                 f"{rb.total_flops / ra.total_flops:>8.2f}")
    lines.append(f"{'storage (MB)':14s}{rb.total_storage_mb:>16.4f}"
                 f"{ra.total_storage_mb:>16.4f}"
                 f"{rb.total_storage_mb / ra.total_storage_mb:>8.2f}")
    lines.append(f"{'gamma':14s}{100 * rb.gamma:>15.2f}%{100 * ra.gamma:>15.2f}%")
    return "\n".join(lines) + "\n"
