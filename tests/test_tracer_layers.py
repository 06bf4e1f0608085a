"""The benchmark's tracer (perfbench/tracer.py) wraps liftsim functions by name.

`install` looks each name in `LAYERS` up in its defining module, or in its
class's own dict for a "Class.method" name.  A name that no longer resolves
there crashes `perfbench/run.py --trace 1`; this test fails first.  It only
reads the layer table (executing tracer.py's source, so no bytecode is
written next to it): nothing is wrapped.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def test_tracer_layer_names_resolve():
    layers = _layers()
    assert "structure" in layers
    for layer, (module_name, funcs) in layers.items():
        home = importlib.import_module(module_name)
        for func in funcs:
            if "." in func:
                cls_name, meth = func.split(".")
                target = vars(getattr(home, cls_name, object)).get(meth)
            else:
                target = getattr(home, func, None)
            assert callable(target), f"{layer}: {module_name}.{func} does not resolve"
