"""Declarative network descriptions and their realization as runnable models.

An ``ArchSpec`` is an ordered list of layer entries plus one input
descriptor. Entries are plain dicts (JSON-serializable) until ``validate()``
passes; it walks the spatial/channel trace front to back and returns
per-entry ``TraceEntry`` records that both the cost model and the model
builder consume, raising ``ArchError`` with a ``layers[i].field`` diagnostic
on the first inconsistency. Each entry's fields are read once, through
``_SCHEMA``, into ``TraceEntry.fields``; nothing downstream reads the dict.

The first ``validate()`` that passes seals the spec: its entries become
read-only copies (a residual's ``body`` a tuple of them) and its trace is
kept, so every later call returns that trace without walking again. A
spec that fails stays editable. ``to_obj()`` gives plain dicts and lists,
which the caller may edit. A validated spec's input extents and ``layers``
are not reassigned either; nothing guards them, so that construction stays
a plain dataclass ``__init__``.

``_SCHEMA`` lists each entry type's fields and their defaults; a field it
does not list is rejected when a spec is read from JSON (``from_obj``).
Every entry may carry a ``name``; unnamed entries get ``<type><index>``.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import blocks as B
from . import tensor as T
from .blocks import ForwardContext, Layer, ParConvSpec
from .errors import ArchError
from .tensor import Tensor

# Each entry type's fields, in the order they are checked, mapped to their
# defaults; a required field maps to its type instead. A field's type picks
# its reader in ``_READERS``: an int must be a JSON integer (or integral
# float), a float a finite JSON number, a bool JSON true or false.
_SCHEMA: dict[str, dict[str, object]] = {
    "conv": {"out_channels": int, "kernel": int, "stride": 1, "padding": 0,
             "bias": True, "bn": True, "relu": True},
    "dsconv": {"out_channels": int, "kernel": 3},
    "parconv": {"out_channels": int, "omega": float, "alpha": 0.5, "kernel": 3,
                "shuffle": True},
    "sparconv": {"out_channels": int, "split": 0.25, "kernel": 3, "shuffle": True},
    "maxpool": {"window": 3, "stride": 2, "padding": 0},
    "relu": {},
    "batchnorm": {},
    "flatten": {},
    "linear": {"out_features": int, "bias": True},
    "bottleneck_head": {"bottleneck_dim": int, "out_features": int},
    "residual": {"body": list, "post_relu": False},
    "tap": {"name": str},
}


@dataclass
class TraceEntry:
    """Resolved fields and geometry of one ArchSpec entry."""

    index: int
    name: str
    kind: str
    in_state: tuple          # ("map", C, H, W) or ("flat", D)
    out_state: tuple
    fields: dict             # every ``_SCHEMA`` field, typed, defaults filled in
    body: tuple["TraceEntry", ...] | None = None
    skip_stride: int = 1     # residual only; 1 and equal channels => identity
    parconv: ParConvSpec | None = None   # parconv and sparconv only
    # (FLOPs, parameters), body included: kept by ``cost`` on first use
    cost_sums: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    @property
    def spatial(self) -> str:
        if self.out_state[0] == "map":
            return f"{self.out_state[2]}x{self.out_state[3]}"
        return "1x1"


@dataclass
class ArchSpec:
    """Input descriptor plus ordered layer entries; sealed by the first
    ``validate()`` that passes."""

    in_channels: int
    in_height: int
    in_width: int
    layers: list[dict] = field(default_factory=list)
    # the trace of the validate() that sealed the spec, else None
    _trace: tuple | None = field(default=None, init=False, repr=False, compare=False)

    # -- construction / serialization -----------------------------------
    @classmethod
    def from_obj(cls, obj: dict) -> "ArchSpec":
        """Validated spec of a parsed JSON object, holding copies of ``obj``'s
        layer entries; a field ``_SCHEMA`` does not list is rejected."""
        try:
            inp = obj["input"]
            layers = obj["layers"]
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
        _reject_unknown_fields(spec.layers, "layers")
        return spec

    def to_obj(self) -> dict:
        """The spec as new plain dicts and lists, which the caller may edit."""
        return {
            "input": {"channels": self.in_channels, "height": self.in_height,
                      "width": self.in_width},
            "layers": _copy_entries(self.layers),
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

    # -- validation -------------------------------------------------------
    def validate(self) -> tuple[TraceEntry, ...]:
        """The spec's trace. The first call that passes walks the spec and
        seals it; every later call returns that same trace."""
        if self._trace is None:
            self._trace, self.layers = self._walk()
        return self._trace

    def _walk(self) -> tuple[tuple[TraceEntry, ...], tuple]:
        """Trace the whole spec front to back, or raise ArchError; return the
        trace and the spec's entries sealed."""
        if min(self.in_channels, self.in_height, self.in_width) < 1:
            raise ArchError("input descriptor extents must be positive")
        if not isinstance(self.layers, list):
            raise ArchError(f"layers: expected a list of layer entries, "
                            f"got {self.layers!r}")
        state = ("map", self.in_channels, self.in_height, self.in_width)
        return self._walk_entries(self.layers, state, "layers", set())[:2]

    def _walk_entries(self, entries: list[dict], state: tuple, prefix: str,
                      names: set[str]) -> tuple[tuple[TraceEntry, ...], tuple, tuple]:
        """Trace ``entries``, the list at path ``prefix``, from ``state``; an
        entry's path (``prefix[i]``) is formatted only for an error. Returns
        the trace, read-only copies of ``entries`` (``MappingProxyType``s of
        new dicts, a residual's ``body`` a tuple of them, as its trace entry's
        ``body`` field holds too) and the output state."""
        trace: list[TraceEntry] = []
        sealed: list[MappingProxyType] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "type" not in entry:
                raise ArchError(f"{prefix}[{i}]: each layer entry needs a 'type' field")
            kind = entry["type"]
            if not isinstance(kind, str) or kind not in _SCHEMA:
                raise ArchError(f"{prefix}[{i}].type: unknown layer type {kind!r}")
            name = entry["name"] if "name" in entry else f"{kind}{i}"
            if not isinstance(name, str):
                raise ArchError(f"{prefix}[{i}].name: expected a string, got {name!r}")
            if name in names:
                raise ArchError(f"{prefix}[{i}].name: duplicate layer name {name!r}")
            names.add(name)
            try:
                te = TraceEntry(i, name, kind, state, state, _resolve(kind, entry))
                state = self._step(te, state, names, prefix)
            except ArchError:
                raise   # from a residual body, already naming its path
            except _FieldError as exc:
                raise ArchError(f"{prefix}[{i}].{exc.key}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise ArchError(f"{prefix}[{i}]: {exc}") from exc
            te.out_state = state
            trace.append(te)
            entry = dict(entry)
            if te.body is not None:
                entry["body"] = te.fields["body"]
            sealed.append(MappingProxyType(entry))
        return tuple(trace), tuple(sealed), state

    def _step(self, te: TraceEntry, state: tuple, names: set[str], prefix: str) -> tuple:
        """Check the resolved entry ``te`` of the list at path ``prefix``
        against ``state``; return its output state."""
        f, kind = te.fields, te.kind
        if kind in ("conv", "dsconv", "parconv", "sparconv", "maxpool", "batchnorm",
                    "residual"):
            if state[0] != "map":
                raise ValueError(f"{kind} requires a feature map, have flat features")
        if kind == "conv":
            k, stride, padding = f["kernel"], f["stride"], f["padding"]
            if f["out_channels"] < 1:
                raise ValueError("out_channels must be positive")
            if k < 1 or stride < 1 or padding < 0:
                raise ValueError("kernel/stride must be >= 1 and padding >= 0")
            _, _, h, w = state
            ho = T.conv_output_size(h, k, stride, padding)
            wo = T.conv_output_size(w, k, stride, padding)
            return ("map", f["out_channels"], ho, wo)
        if kind == "dsconv":
            _, c, h, w = state
            if f["out_channels"] < 1:
                raise ValueError("out_channels must be positive")
            if f["kernel"] < 1 or f["kernel"] % 2 == 0:
                raise ValueError("kernel must be odd and >= 1")
            return ("map", f["out_channels"], h, w)
        if kind in ("parconv", "sparconv"):
            _, c, h, w = state
            te.parconv = _parconv_spec(kind, f, c)
            return ("map", te.parconv.out_channels, h, w)
        if kind == "maxpool":
            window, stride, padding = f["window"], f["stride"], f["padding"]
            if window < 1 or stride < 1:
                raise ValueError("window/stride must be >= 1")
            if not 0 <= padding < window:
                raise ValueError("padding must be >= 0 and smaller than the window")
            _, c, h, w = state
            ho = T.conv_output_size(h, window, stride, padding)
            wo = T.conv_output_size(w, window, stride, padding)
            return ("map", c, ho, wo)
        if kind in ("relu", "tap", "batchnorm"):
            return state
        if kind == "flatten":
            if state[0] != "map":
                raise ValueError("flatten requires a feature map")
            _, c, h, w = state
            return ("flat", c * h * w)
        if kind == "linear":
            if state[0] != "flat":
                raise ValueError("linear requires flat features (insert a flatten)")
            if f["out_features"] < 1:
                raise ValueError("out_features must be positive")
            return ("flat", f["out_features"])
        if kind == "bottleneck_head":
            if state[0] != "flat":
                raise ValueError("bottleneck_head requires flat features")
            if f["bottleneck_dim"] < 1:
                raise ValueError("bottleneck dimension must be >= 1")
            if f["out_features"] < 1:
                raise ValueError("head dimensions must be positive")
            return ("flat", f["out_features"])
        if kind == "residual":
            te.body, f["body"], out = self._walk_entries(
                f["body"], state, f"{prefix}[{te.index}].body", names)
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
        return {te.name: te.out_state[1:]
                for te, _ in walk_trace(self.validate()) if te.kind == "tap"}

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


def _bool_field(entry: dict, key: str, default=_REQUIRED) -> bool:
    value = entry.get(key, default)
    if value is not True and value is not False:
        raise _FieldError(key, f"expected true or false, got {value!r}")
    return value


def _str_field(entry: dict, key: str, default=_REQUIRED) -> str:
    value = entry.get(key, default)
    if value is _REQUIRED:
        raise _FieldError(key, "missing required field")
    if not isinstance(value, str):
        raise _FieldError(key, f"expected a string, got {value!r}")
    return value


def _body_field(entry: dict, key: str, default=_REQUIRED) -> list:
    body = entry.get(key, default)
    if body is _REQUIRED:
        raise _FieldError(key, "missing required field")
    if not isinstance(body, list) or not body:
        raise _FieldError(key, f"expected a non-empty list of entries, got {body!r}")
    return body


_READERS = {int: _int_field, float: _float_field, bool: _bool_field,
            str: _str_field, list: _body_field}


def _field_readers(fields: dict) -> tuple:
    """(key, reader, default, exact) per field of one ``_SCHEMA`` entry type.
    A value of type ``exact`` is one the reader would return unchanged;
    floats (checked for finiteness) and bodies (for emptiness) have none."""
    readers = []
    for key, default in fields.items():
        of_type = default if isinstance(default, type) else type(default)
        if of_type is default:
            default = _REQUIRED
        exact = of_type if of_type in (int, bool, str) else None
        readers.append((key, _READERS[of_type], default, exact))
    return tuple(readers)


# worked out once, as every validate() reads every field of every entry
_FIELD_READERS = {kind: _field_readers(fields) for kind, fields in _SCHEMA.items()}


def _resolve(kind: str, entry: dict) -> dict:
    """The fields ``_SCHEMA`` lists for ``kind``, read from ``entry`` by type."""
    fields = {}
    for key, read, default, exact in _FIELD_READERS[kind]:
        value = entry.get(key, default)
        fields[key] = value if type(value) is exact else read(entry, key, default)
    return fields


def _reject_unknown_fields(entries: list[dict], prefix: str) -> None:
    """Reject an entry field ``_SCHEMA`` lacks; ``entries`` have validated."""
    for i, entry in enumerate(entries):
        unknown = entry.keys() - _SCHEMA[entry["type"]].keys() - {"type", "name"}
        if unknown:
            raise ArchError(f"{prefix}[{i}].{min(unknown)}: unknown field")
        if entry["type"] == "residual":
            _reject_unknown_fields(entry["body"], f"{prefix}[{i}].body")


def _copy_entries(entries) -> list:
    """``entries`` as a new list of new plain dicts, each ``body`` list or
    tuple in them copied the same way; a sealed spec's entries included."""
    copies = []
    for entry in entries:
        if isinstance(entry, (dict, MappingProxyType)):
            entry = dict(entry)
            if isinstance(entry.get("body"), (list, tuple)):
                entry["body"] = _copy_entries(entry["body"])
        copies.append(entry)
    return copies


def walk_trace(trace: tuple[TraceEntry, ...]):
    """Every entry of a ``validate()`` trace, each residual's body right after
    it, as (trace entry, whether it lies inside a residual body)."""
    for te in trace:
        yield te, False
        if te.body:
            for sub, _ in walk_trace(te.body):
                yield sub, True


def _projection_stride(h: int, w: int, ho: int, wo: int) -> int:
    """Stride for the pointwise skip projection, or raise if none fits."""
    for s in (1, 2, 3, 4):
        if math.ceil(h / s) == ho and math.ceil(w / s) == wo:
            return s
    raise ValueError(
        f"residual body output {ho}x{wo} unreachable from {h}x{w} by a "
        f"pointwise projection")


# one frozen spec per block geometry, shared by every trace entry and
# transform that asks for it (a geometry ParConvSpec rejects is not kept)
_shared_parconv_spec = functools.lru_cache(maxsize=1024)(ParConvSpec)


def _parconv_spec(kind: str, fields: dict, in_channels: int) -> ParConvSpec:
    """Block spec of resolved ``parconv`` or ``sparconv`` fields; a sparconv
    entry is a ParConv with no expanding conv whose ``split`` is the branch-A
    share."""
    if kind == "sparconv":
        omega, alpha = None, fields["split"]
    else:
        omega, alpha = fields["omega"], fields["alpha"]
    spec = _shared_parconv_spec(in_channels, fields["out_channels"], omega, alpha,
                                fields["kernel"], fields["shuffle"])
    if spec.include_shuffle and in_channels % 2:
        raise ValueError(
            f"channel shuffle needs an even channel count, have {in_channels}")
    return spec


def parconv_spec_of(entry: dict, in_channels: int) -> ParConvSpec:
    """Block spec of a ``parconv`` or ``sparconv`` entry that follows
    ``in_channels`` channels; raise ValueError if that input cannot feed it."""
    kind = entry["type"]
    return _parconv_spec(kind, _resolve(kind, entry), in_channels)


def layers_of(te: TraceEntry) -> list[tuple]:
    """The layers of trace entry ``te`` in build order, as the tuples
    ``blocks.py`` describes: what the builder makes and the cost rules count.
    A residual entry lists its projection; its body is its nested entries."""
    f, c = te.fields, te.in_state[1]
    kind = te.kind
    if kind == "conv":
        c_out = f["out_channels"]
        layers = [("conv", "conv", c, c_out, f["kernel"], f["stride"], f["padding"],
                   f["bias"])]
        if f["bn"]:
            # a ReLU after the batch norm runs inside it, as one op, and
            # the batch norm reuses the conv output only it reads
            layers.append(("bn", "bn", c_out, f["relu"], True))
        elif f["relu"]:
            layers.append(("relu", "relu"))
        return layers
    if kind in ("parconv", "sparconv"):
        return B.parconv_layers(te.parconv)
    if kind == "dsconv":
        return B.dsconv_layers(c, f["out_channels"], f["kernel"])
    if kind == "residual":
        return B.projection_layers(c, te.out_state[1], te.skip_stride)
    if kind == "maxpool":
        return [("maxpool", "maxpool", f["window"], f["stride"], f["padding"])]
    if kind == "linear":
        return [("linear", "linear", c, f["out_features"], f["bias"])]
    if kind == "bottleneck_head":
        b = f["bottleneck_dim"]
        return [("linear", "fc1", c, b, True),
                ("linear", "fc2", b, f["out_features"], True)]
    if kind == "batchnorm":
        return [("bn", "bn", c, False, False)]
    if kind in ("relu", "flatten", "tap"):
        return [(kind, te.name)]
    raise ArchError(f"no layer list for layer type {kind!r}")


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
            tensor.data[...] = arr

    def save(self, prefix: str | Path) -> None:
        T.save_checkpoint(prefix, self.state(), extra={"arch": self.arch.to_obj()})

    def zero_grad(self) -> None:
        for _, p in self.params():
            p.zero_grad()


def build_model(arch: ArchSpec, seed: int = 0) -> Model:
    """Instantiate an ArchSpec with seed-controlled initialization: its
    weights are drawn from ``default_rng(seed)`` in state order."""
    model = _zero_model(arch)
    B.init_weights(model.params(), np.random.default_rng(seed))
    return model


def load_model(prefix: str | Path) -> Model:
    """Rebuild a model from a self-describing checkpoint, read once; no
    weight is drawn."""
    manifest, arrays = T.load_checkpoint(prefix)
    if "arch" not in manifest:
        raise ArchError(f"checkpoint {prefix} carries no architecture description")
    model = _zero_model(ArchSpec.from_obj(manifest["arch"]))
    model.load_state(arrays)
    return model


def _zero_model(arch: ArchSpec) -> Model:
    """``arch``'s model, its layers made with zero weights."""
    return Model(arch, B.Sequential(_build_entries(arch.validate())))


def _build_entries(trace: list[TraceEntry]) -> list[tuple[str, Layer]]:
    return [(te.name, _build_one(te)) for te in trace]


def _build_one(te: TraceEntry) -> Layer:
    if te.kind == "residual":
        body = B.Sequential(_build_entries(te.body))
        return B.ResidualBlock(body, B.build(layers_of(te)), te.fields["post_relu"])
    children = B.build(layers_of(te))
    if te.kind in ("parconv", "sparconv"):
        return B.ParConvBlock(children)
    if te.kind == "conv" and te.fields["bn"] and te.in_state[1] == 1:
        return B.ConvBatchNorm(children)
    return B.Sequential(children) if len(children) > 1 else children[0][1]
