"""Declarative network descriptions and their realization as runnable models.

An ``ArchSpec`` is an ordered list of layer entries plus one input
descriptor. Entries are plain dicts (JSON-serializable); ``validate()``
walks the spatial/channel trace front to back and returns per-entry
``TraceEntry`` records that both the cost model and the model builder
consume, raising ``ArchError`` with a ``layers[i].field`` diagnostic on the
first inconsistency.

Supported entry types and their fields (defaults in parentheses):

=================  ============================================================
``conv``           out_channels, kernel, stride (1), padding (0), bias (true),
                   bn (true), relu (true)
``dsconv``         out_channels, kernel (3), inner_bn (true)
``parconv``        out_channels, omega, alpha (0.5), kernel (3), shuffle
                   (true), inner_bn (true)
``sparconv``       out_channels, split (0.25), kernel (3), shuffle (true),
                   inner_bn (true)
``maxpool``        window (3), stride (2), padding (0)
``relu``           --
``batchnorm``      --
``flatten``        --
``linear``         out_features, bias (true)
``bottleneck_head``  bottleneck_dim, out_features
``residual``       body (list of entries), post_relu (false)
``tap``            name
=================  ============================================================

Every entry may carry a ``name``; unnamed entries get ``<type><index>``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blocks as B
from . import tensor as T
from .blocks import ForwardContext, Layer, ParConvSpec, BottleneckHeadSpec
from .errors import ArchError
from .tensor import Tensor

_COMPACT_KINDS = ("dsconv", "parconv", "sparconv")
_KNOWN_KINDS = _COMPACT_KINDS + (
    "conv", "maxpool", "relu", "batchnorm", "flatten", "linear",
    "bottleneck_head", "residual", "tap")
# Boolean fields per entry type; each must be JSON true or false when given.
_SWITCHES = {
    "conv": ("bias", "bn", "relu"), "dsconv": ("inner_bn",),
    "parconv": ("shuffle", "inner_bn"), "sparconv": ("shuffle", "inner_bn"),
    "linear": ("bias",), "residual": ("post_relu",),
}


@dataclass
class TraceEntry:
    """Resolved geometry of one ArchSpec entry."""

    index: int
    name: str
    kind: str
    entry: dict
    in_state: tuple          # ("map", C, H, W) or ("flat", D)
    out_state: tuple
    body: list["TraceEntry"] | None = None
    skip_stride: int = 1     # residual only; 1 and equal channels => identity

    @property
    def spatial(self) -> str:
        if self.out_state[0] == "map":
            return f"{self.out_state[2]}x{self.out_state[3]}"
        return "1x1"


@dataclass
class ArchSpec:
    """Input descriptor plus ordered layer entries."""

    in_channels: int
    in_height: int
    in_width: int
    layers: list[dict] = field(default_factory=list)

    # -- construction / serialization -----------------------------------
    @classmethod
    def from_obj(cls, obj: dict) -> "ArchSpec":
        try:
            inp = obj["input"]
            layers = [dict(e) for e in obj["layers"]]
            if not isinstance(inp, dict):
                raise TypeError("'input' must be an object")
        except (KeyError, TypeError) as exc:
            raise ArchError(f"architecture object missing field: {exc}") from exc
        try:
            extents = [_int_field(inp, key) for key in ("channels", "height", "width")]
        except _FieldError as exc:
            raise ArchError(f"input.{exc.key}: {exc}") from exc
        spec = cls(*extents, layers)
        spec.validate()
        return spec

    def to_obj(self) -> dict:
        return {
            "input": {"channels": self.in_channels, "height": self.in_height,
                      "width": self.in_width},
            "layers": self.layers,
        }

    @classmethod
    def from_json(cls, text: str) -> "ArchSpec":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArchError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from exc
        return cls.from_obj(obj)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=1)

    @classmethod
    def load(cls, path: str | Path) -> "ArchSpec":
        path = Path(path)
        if not path.exists():
            raise ArchError(f"file not found: {path}")
        return cls.from_json(path.read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def copy(self) -> "ArchSpec":
        return ArchSpec.from_obj(json.loads(self.to_json()))

    # -- validation -------------------------------------------------------
    def validate(self) -> list[TraceEntry]:
        if min(self.in_channels, self.in_height, self.in_width) < 1:
            raise ArchError("input descriptor extents must be positive")
        state = ("map", self.in_channels, self.in_height, self.in_width)
        names: set[str] = set()
        trace, _ = self._walk(self.layers, state, "layers", names)
        return trace

    def _walk(self, entries: list[dict], state: tuple, prefix: str,
              names: set[str]) -> tuple[list[TraceEntry], tuple]:
        trace: list[TraceEntry] = []
        for i, entry in enumerate(entries):
            where = f"{prefix}[{i}]"
            if not isinstance(entry, dict) or "type" not in entry:
                raise ArchError(f"{where}: each layer entry needs a 'type' field")
            kind = entry["type"]
            if kind not in _KNOWN_KINDS:
                raise ArchError(f"{where}.type: unknown layer type {kind!r}")
            name = entry.get("name", f"{kind}{i}")
            if name in names:
                raise ArchError(f"{where}.name: duplicate layer name {name!r}")
            names.add(name)
            for key in _SWITCHES.get(kind, ()):
                value = entry.get(key, False)
                if value is not True and value is not False:
                    raise ArchError(f"{where}.{key}: expected true or false, got {value!r}")
            te = TraceEntry(i, name, kind, entry, state, state)
            try:
                state = self._step(te, state, names)
            except ArchError:
                raise   # from a residual body, already naming its path
            except _FieldError as exc:
                raise ArchError(f"{where}.{exc.key}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise ArchError(f"{where}: {exc}") from exc
            te.out_state = state
            trace.append(te)
        return trace, state

    def _step(self, te: TraceEntry, state: tuple, names: set[str]) -> tuple:
        entry, kind = te.entry, te.kind
        if kind in ("conv", "maxpool", "batchnorm", "residual") + _COMPACT_KINDS:
            if state[0] != "map":
                raise ValueError(f"{kind} requires a feature map, have flat features")
        if kind == "conv":
            c_out = _int_field(entry, "out_channels")
            k = _int_field(entry, "kernel")
            stride = _int_field(entry, "stride", 1)
            padding = _int_field(entry, "padding", 0)
            if k < 1 or stride < 1 or padding < 0:
                raise ValueError("kernel/stride must be >= 1 and padding >= 0")
            _, c, h, w = state
            ho = T.conv_output_size(h, k, stride, padding)
            wo = T.conv_output_size(w, k, stride, padding)
            return ("map", c_out, ho, wo)
        if kind == "dsconv":
            c_out = _int_field(entry, "out_channels")
            k = _int_field(entry, "kernel", 3)
            _, c, h, w = state
            if c_out < 1:
                raise ValueError("out_channels must be positive")
            if k < 1 or k % 2 == 0:
                raise ValueError("kernel must be odd and >= 1")
            return ("map", c_out, h, w)
        if kind in ("parconv", "sparconv"):
            _, c, h, w = state
            spec = parconv_spec_of(entry, c)
            if spec.include_shuffle and c % 2:
                raise ValueError(f"channel shuffle needs an even channel count, have {c}")
            return ("map", spec.out_channels, h, w)
        if kind == "maxpool":
            window = _int_field(entry, "window", 3)
            stride = _int_field(entry, "stride", 2)
            padding = _int_field(entry, "padding", 0)
            _, c, h, w = state
            ho = T.conv_output_size(h, window, stride, padding)
            wo = T.conv_output_size(w, window, stride, padding)
            return ("map", c, ho, wo)
        if kind in ("relu", "tap", "batchnorm"):
            if kind == "tap":
                _req_str(entry, "name")
            return state
        if kind == "flatten":
            if state[0] != "map":
                raise ValueError("flatten requires a feature map")
            _, c, h, w = state
            return ("flat", c * h * w)
        if kind == "linear":
            if state[0] != "flat":
                raise ValueError("linear requires flat features (insert a flatten)")
            n_out = _int_field(entry, "out_features")
            if n_out < 1:
                raise ValueError("out_features must be positive")
            return ("flat", n_out)
        if kind == "bottleneck_head":
            if state[0] != "flat":
                raise ValueError("bottleneck_head requires flat features")
            n_out = _int_field(entry, "out_features")
            BottleneckHeadSpec(state[1], _int_field(entry, "bottleneck_dim"), n_out)
            return ("flat", n_out)
        if kind == "residual":
            body = entry.get("body")
            if not isinstance(body, list) or not body:
                raise ValueError("residual entry needs a non-empty 'body' list")
            sub, out = self._walk(body, state, f"layers[{te.index}].body", names)
            te.body = sub
            if out[0] != "map":
                raise ValueError("residual body must produce a feature map")
            _, c_in, h, w = state
            _, c_out, ho, wo = out
            te.skip_stride = _projection_stride(h, w, ho, wo)
            return out
        raise ValueError(f"unhandled layer type {kind!r}")

    # -- convenience ------------------------------------------------------
    def tap_shapes(self) -> dict[str, tuple]:
        """Tap name -> (C, H, W) at that point, in arch order."""
        out: dict[str, tuple] = {}

        def visit(trace: list[TraceEntry]):
            for te in trace:
                if te.kind == "tap":
                    out[te.entry["name"]] = te.out_state[1:]
                if te.body:
                    visit(te.body)

        visit(self.validate())
        return out

    def default_tap_pairs(self) -> list[tuple[str, str]]:
        """Pair consecutive taps of equal spatial size: one pair per stage."""
        shapes = self.tap_shapes()
        taps = list(shapes.items())
        pairs = []
        i = 0
        while i + 1 < len(taps):
            (n1, s1), (n2, s2) = taps[i], taps[i + 1]
            if s1[1:] == s2[1:]:
                pairs.append((n1, n2))
                i += 2
            else:
                i += 1
        return pairs


class _FieldError(ValueError):
    """A field of the entry being validated is missing or wrongly typed; the
    entry's path and ``key`` prefix the message."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


_REQUIRED = object()


def _int_field(entry: dict, key: str, default=_REQUIRED) -> int:
    """``entry[key]`` as an int. Only a JSON integer, or a float with an
    integral value, is accepted: bools, strings, nulls and non-integral
    numbers are rejected rather than coerced (``int(3.9)`` would be 3)."""
    value = entry.get(key, default)
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    if value is _REQUIRED:
        raise _FieldError(key, "missing required field")
    raise _FieldError(key, f"expected an integer, got {value!r}")


def _float_field(entry: dict, key: str, default=_REQUIRED) -> float:
    """``entry[key]`` as a finite float. Only a JSON number is accepted:
    bools, strings, nulls and integers too large for a float are rejected."""
    value = entry.get(key, default)
    if type(value) is float or type(value) is int:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    elif value is _REQUIRED:
        raise _FieldError(key, "missing required field")
    raise _FieldError(key, f"expected a number, got {value!r}")


def _req_str(entry: dict, key: str) -> str:
    if key not in entry or not isinstance(entry[key], str):
        raise KeyError(f"missing required string field {key!r}")
    return entry[key]


def _projection_stride(h: int, w: int, ho: int, wo: int) -> int:
    """Stride for the pointwise skip projection, or raise if none fits."""
    for s in (1, 2, 3, 4):
        if math.ceil(h / s) == ho and math.ceil(w / s) == wo:
            return s
    raise ValueError(
        f"residual body output {ho}x{wo} unreachable from {h}x{w} by a "
        f"pointwise projection")


def parconv_spec_of(entry: dict, in_channels: int) -> ParConvSpec:
    """Block spec of a ``parconv`` or ``sparconv`` entry; a sparconv entry is
    a ParConv with no expanding conv whose ``split`` is the branch-A share."""
    out_channels = _int_field(entry, "out_channels")
    if entry.get("type") == "sparconv":
        omega, alpha = None, _float_field(entry, "split", 0.25)
    else:
        omega = _float_field(entry, "omega")
        alpha = _float_field(entry, "alpha", 0.5)
    return ParConvSpec(
        in_channels=in_channels,
        out_channels=out_channels,
        omega=omega,
        alpha=alpha,
        kernel=_int_field(entry, "kernel", 3),
        include_shuffle=bool(entry.get("shuffle", True)),
        inner_bn=bool(entry.get("inner_bn", True)),
    )


# -- model building ------------------------------------------------------------


class Model:
    """A realized ArchSpec: named layers, parameters and forward pass."""

    def __init__(self, arch: ArchSpec, root: B.Sequential):
        self.arch = arch
        self.root = root

    def forward(self, x: Tensor | np.ndarray, training: bool = False,
                taps: dict[str, Tensor] | None = None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        expected = (self.arch.in_channels, self.arch.in_height, self.arch.in_width)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"expected input (N, {expected[0]}, {expected[1]}, "
                             f"{expected[2]}), got {x.shape}")
        return self.root.forward(x, ForwardContext(training=training, taps=taps))

    def params(self) -> list[tuple[str, Tensor]]:
        return self.root.params()

    def buffers(self) -> list[tuple[str, Tensor]]:
        return self.root.buffers()

    def state(self) -> dict[str, Tensor]:
        items = self.params() + self.buffers()
        state = dict(items)
        if len(state) != len(items):
            names = [n for n, _ in items]
            repeated = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"repeated state names: {repeated}")
        return state

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        state = self.state()
        missing = sorted(set(state) - set(arrays))
        extra = sorted(set(arrays) - set(state))
        if missing or extra:
            raise ValueError(f"state mismatch; missing={missing[:3]} extra={extra[:3]}")
        for name, tensor in state.items():
            arr = arrays[name]
            if tuple(arr.shape) != tensor.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{arr.shape} vs {tensor.shape}")
            tensor.data[...] = arr.astype(tensor.dtype)

    def save(self, prefix: str | Path) -> None:
        T.save_checkpoint(prefix, self.state(), extra={"arch": self.arch.to_obj()})

    def load(self, prefix: str | Path) -> None:
        self.load_state(T.load_checkpoint(prefix))

    def zero_grad(self) -> None:
        for _, p in self.params():
            p.zero_grad()

    def set_requires_grad(self, enabled: bool) -> None:
        for _, p in self.params():
            p.requires_grad = enabled


def build_model(arch: ArchSpec, seed: int = 0) -> Model:
    """Instantiate an ArchSpec with seed-controlled initialization."""
    trace = arch.validate()
    rng = np.random.default_rng(seed)
    root = B.Sequential(_build_entries(trace, rng))
    return Model(arch, root)


def load_model(prefix: str | Path) -> Model:
    """Rebuild a model from a self-describing checkpoint."""
    manifest = T.load_manifest(prefix)
    if "arch" not in manifest:
        raise ArchError(f"checkpoint {prefix} carries no architecture description")
    model = build_model(ArchSpec.from_obj(manifest["arch"]))
    model.load(prefix)
    return model


def _build_entries(trace: list[TraceEntry], rng) -> list[tuple[str, Layer]]:
    out: list[tuple[str, Layer]] = []
    for te in trace:
        out.append((te.name, _build_one(te, rng)))
    return out


def _build_one(te: TraceEntry, rng) -> Layer:
    entry = te.entry
    if te.kind == "conv":
        _, c_in, h, w = te.in_state
        stack: list[tuple[str, Layer]] = [
            ("conv", B.Conv2d(c_in, int(entry["out_channels"]), int(entry["kernel"]),
                              int(entry.get("stride", 1)), int(entry.get("padding", 0)),
                              bias=bool(entry.get("bias", True)), rng=rng))]
        if entry.get("bn", True):
            stack.append(("bn", B.BatchNorm2d(int(entry["out_channels"]))))
        if entry.get("relu", True):
            stack.append(("relu", B.ReLU()))
        return B.Sequential(stack) if len(stack) > 1 else stack[0][1]
    if te.kind == "dsconv":
        _, c_in, _, _ = te.in_state
        return B.dsconv_block(c_in, int(entry["out_channels"]),
                              int(entry.get("kernel", 3)),
                              inner_bn=bool(entry.get("inner_bn", True)), rng=rng)
    if te.kind in ("parconv", "sparconv"):
        _, c_in, _, _ = te.in_state
        return B.ParConvBlock(parconv_spec_of(entry, c_in), rng=rng)
    if te.kind == "maxpool":
        return B.MaxPool2d(int(entry.get("window", 3)), int(entry.get("stride", 2)),
                           int(entry.get("padding", 0)))
    if te.kind == "relu":
        return B.ReLU()
    if te.kind == "batchnorm":
        return B.BatchNorm2d(te.in_state[1])
    if te.kind == "flatten":
        return B.Flatten()
    if te.kind == "linear":
        return B.Linear(te.in_state[1], int(entry["out_features"]),
                        bias=bool(entry.get("bias", True)), rng=rng)
    if te.kind == "bottleneck_head":
        return B.bottleneck_head(
            BottleneckHeadSpec(te.in_state[1], int(entry["bottleneck_dim"]),
                               int(entry["out_features"])), rng=rng)
    if te.kind == "residual":
        body = B.Sequential(_build_entries(te.body, rng))
        c_in = te.in_state[1]
        c_out = te.out_state[1]
        return B.ResidualBlock(body, c_in, c_out, skip_stride=te.skip_stride,
                               post_relu=bool(entry.get("post_relu", False)), rng=rng)
    if te.kind == "tap":
        return B.Tap(entry["name"])
    raise ArchError(f"cannot build layer type {te.kind!r}")
