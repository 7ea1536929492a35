"""The benchmark's span tracer: it finds every op and loss it wraps by name,
and puts each original back when uninstalled."""
import importlib.util
from pathlib import Path

from parcnn import distill
from parcnn import tensor as T

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_wrapped_name():
    tracer = _load_tracer()
    ops = {name: getattr(T, name, None) for name in tracer.OP_CATEGORY}
    losses = {name: getattr(distill, name, None) for name in tracer.LOSS_FUNCTIONS}
    conv2d = T.conv2d
    t = tracer.Tracer()
    try:
        # install looks each name up with getattr; a deleted op fails here
        t.install()
        assert T.conv2d is not conv2d
    finally:
        t.uninstall()
    assert T.conv2d is conv2d
    assert all(getattr(T, name) is fn for name, fn in ops.items())
    assert all(getattr(distill, name) is fn for name, fn in losses.items())
