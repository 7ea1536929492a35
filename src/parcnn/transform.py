"""Turn a baseline architecture into a compact one.

The transformation has two independent steps, applied in order:

1. If the fully-connected share of storage (gamma) exceeds the policy
   threshold, shrink the head to a bottleneck of the requested dimension.
2. Replace the selected standard convolutions with compact blocks
   (ParConv by default), optionally wrapping each replacement in a
   residual connection.

Replaced layers keep their names; everything else is untouched, so the
spatial/channel trace of the result still validates and logits keep their
shape.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

from . import cost
from .arch import ArchSpec
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
    targets every shape-preserving convolution with an odd K>=3) or an
    explicit comma-separated list of layer names.
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
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


def _conv_entries(layers: list[dict]) -> list[tuple[list[dict], int, bool]]:
    """All conv entries as (owning list, index, inside_residual), in order."""
    found: list[tuple[list[dict], int, bool]] = []

    def visit(entries: list[dict], inside: bool):
        for i, e in enumerate(entries):
            if e.get("type") == "conv":
                found.append((entries, i, inside))
            elif e.get("type") == "residual":
                visit(e.get("body", []), True)

    visit(layers, False)
    return found


def _replaceable(entry: dict) -> bool:
    k = int(entry.get("kernel", 0))
    stride = int(entry.get("stride", 1))
    padding = int(entry.get("padding", 0))
    if k < 3 or k % 2 == 0:
        return False
    if stride == 1:
        return padding == (k - 1) // 2    # must preserve spatial size
    return stride == 2 and padding == (k - 1) // 2


def select_replacements(arch: ArchSpec, selector: str) -> list[tuple[list[dict], int]]:
    """Resolve a selector to concrete (owning list, index) conv positions."""
    convs = _conv_entries(arch.layers)
    if selector == "interior":
        picked = [(lst, i) for lst, i, _ in convs[1:-1] if _replaceable(lst[i])] \
            if len(convs) > 2 else []
    elif selector == "residual_body":
        picked = [(lst, i) for lst, i, inside in convs
                  if inside and _replaceable(lst[i])]
    elif selector == "all":
        picked = [(lst, i) for lst, i, _ in convs if _replaceable(lst[i])]
    else:
        wanted = {name.strip() for name in selector.split(",") if name.strip()}
        picked = []
        for lst, i, _ in convs:
            if lst[i].get("name") in wanted:
                if not _replaceable(lst[i]):
                    raise ArchError(
                        f"layer {lst[i].get('name')!r} cannot be replaced "
                        f"shape-preservingly")
                picked.append((lst, i))
        missing = wanted - {lst[i].get("name") for lst, i in picked}
        if missing:
            raise ArchError(f"selector names not found: {sorted(missing)}")
    return picked


def _has_compact_blocks(layers: list[dict]) -> bool:
    for e in layers:
        if e.get("type") in ("parconv", "sparconv", "dsconv"):
            return True
        if e.get("type") == "residual" and _has_compact_blocks(e.get("body", [])):
            return True
    return False


def _compact_entry(conv: dict, policy: DistillPolicy) -> dict:
    name = conv.get("name")
    out_channels = int(conv["out_channels"])
    kernel = int(conv["kernel"])
    if policy.variant == "parconv":
        block = {"type": "parconv", "out_channels": out_channels,
                 "kernel": kernel, "omega": policy.omega}
    elif policy.variant == "sparconv":
        block = {"type": "sparconv", "out_channels": out_channels, "kernel": kernel}
    else:
        block = {"type": "dsconv", "out_channels": out_channels, "kernel": kernel}
    if name:
        block["name"] = name
    return block


def _replace_one(owner: list[dict], index: int, policy: DistillPolicy) -> None:
    conv = owner[index]
    name = conv.get("name", f"conv{index}")
    stride = int(conv.get("stride", 1))
    block = _compact_entry(conv, policy)
    if policy.residual:
        inner = dict(block)
        inner["name"] = f"{name}_block"
        block = {"type": "residual", "name": name, "body": [inner],
                 "post_relu": False}
    replacement = [block]
    if stride == 2:
        # compact blocks are stride-1; downsample first
        pool = {"type": "maxpool", "name": f"{name}_pool", "window": 3,
                "stride": 2, "padding": 1}
        if policy.residual:
            block["body"].insert(0, pool)
        else:
            replacement = [pool, block]
    owner[index:index + 1] = replacement


def apply_bottleneck(arch: ArchSpec, bottleneck_dim: int) -> ArchSpec:
    """Insert or resize the pre-output bottleneck; the rest is untouched."""
    if bottleneck_dim < 1:
        raise ArchError("bottleneck dimension must be >= 1")
    new = arch.copy()
    head = [(i, e) for i, e in enumerate(new.layers)
            if e.get("type") in ("linear", "bottleneck_head")]
    if not head:
        raise ArchError("architecture has no linear head to bottleneck")
    last_i, last = head[-1]
    if last["type"] == "bottleneck_head":
        last["bottleneck_dim"] = bottleneck_dim
    elif len(head) >= 2 and head[-2][1]["type"] == "linear":
        head[-2][1]["out_features"] = bottleneck_dim
    else:
        new.layers[last_i] = {
            "type": "bottleneck_head",
            "name": last.get("name", "head"),
            "bottleneck_dim": bottleneck_dim,
            "out_features": int(last["out_features"]),
        }
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
    arch.validate()
    gamma_before = cost.gamma(arch)
    new = arch.copy()
    head_changed = False
    if gamma_before > policy.threshold:
        new = apply_bottleneck(new, policy.bottleneck_dim)
        head_changed = True
    gamma_after = cost.gamma(new)
    if head_changed and gamma_after > policy.threshold:
        log.warning("bottleneck dim %d only reaches gamma=%.4f (> threshold %.4f)",
                    policy.bottleneck_dim, gamma_after, policy.threshold)
    picked = select_replacements(new, policy.replace_selector)
    if not picked:
        # re-running on an already-compact architecture is a no-op, but a
        # selector that finds nothing on a plain network is a misconfiguration
        if _has_compact_blocks(new.layers):
            new.validate()
            return TransformResult(new, gamma_before, gamma_after, head_changed, 0)
        raise ArchError(
            f"selector {policy.replace_selector!r} matched no replaceable "
            f"convolutions")
    # replace back to front so stride-2 expansions don't shift later indices
    for owner, index in reversed(picked):
        _replace_one(owner, index, policy)
    new.validate()
    return TransformResult(new, gamma_before, gamma_after, head_changed, len(picked))


def render_diff(before: ArchSpec, after: ArchSpec, result: TransformResult | None = None,
                ) -> str:
    """Side-by-side cost summary of a transformation."""
    rb = cost.analyze(before)
    ra = cost.analyze(after)
    lines = ["architecture transformation", ""]
    if result is not None:
        lines.append(f"gamma before head change : {100 * result.gamma_before:.2f}%")
        lines.append(f"gamma after head change  : {100 * result.gamma_after_head:.2f}%"
                     + ("" if result.head_changed else " (head untouched)"))
        lines.append(f"convolutions replaced    : {result.replaced}")
        lines.append("")
    lines.append(f"{'':14s}{'before':>16s}{'after':>16s}{'ratio':>8s}")
    lines.append(f"{'FLOPs':14s}{rb.total_flops:>16d}{ra.total_flops:>16d}"
                 f"{rb.total_flops / ra.total_flops:>8.2f}")
    lines.append(f"{'storage (MB)':14s}{rb.total_storage_mb:>16.4f}"
                 f"{ra.total_storage_mb:>16.4f}"
                 f"{rb.total_storage_mb / ra.total_storage_mb:>8.2f}")
    lines.append(f"{'gamma':14s}{100 * rb.gamma:>15.2f}%{100 * ra.gamma:>15.2f}%")
    return "\n".join(lines) + "\n"
