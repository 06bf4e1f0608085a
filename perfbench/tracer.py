"""Call-site timing wrappers around liftsim's layer functions.

The wrappers live in the benchmark, not in liftsim: ``install`` replaces each
listed function by a counting, timing wrapper in *every* ``liftsim.*``
namespace that holds it.  liftsim's modules import each other by name
(``from .structure import is_dangerous`` in ``simulate``), so patching only
the defining module would miss every cross-module call.
``DistributionTable`` methods are patched on the class.

Each wrapper records calls, self time (its own duration minus the time spent
in wrapped callees), outermost inclusive time and exceptions that pass
through it.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from functools import update_wrapper

# Layer name -> (defining module, functions); "Class.method" names are
# patched on the class.
LAYERS = {
    "dist": ("liftsim.dist", ("DistributionTable.__init__", "DistributionTable.condition",
                              "DistributionTable.maxprob", "project", "xor_bias")),
    "protocols": ("liftsim.protocols", ("kraft_heavy_message", "message_distribution",
                                        "canonical_protocol")),
    "structure": ("liftsim.structure", ("is_dangerous", "is_leaking", "is_sparsifying",
                                        "is_biasing", "is_dense", "max_density",
                                        "density_restoring_fix",
                                        "density_restoring_partition")),
    "simulate": ("liftsim.simulate", ("lift_deterministic", "enumerate_output_distribution")),
    "gadgets": ("liftsim.gadgets", ("discrepancy", "xor_power")),
    "exact": ("liftsim.exact", ("cmp_pow2", "cmp_products", "log2_bounds")),
    "dtrees": ("liftsim.dtrees", ("brute_force_Ddt",)),
}

# Functions whose results are counted as "flagged" when truthy.
FLAGGED = {"structure.is_dangerous"}


def metric_name(layer: str, func: str) -> str:
    return f"{layer}.{func.replace('.__init__', '.init')}"


class Tracer:
    """Per-function counters; one instance per traced process."""

    def __init__(self):
        self.stats = {}      # name -> [calls, self_s, total_s, errors, flagged]
        self._children = []  # child time accumulated by each active wrapper

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        children = self._children
        clock = time.perf_counter
        flagged = name in FLAGGED
        depth = [0]

        def wrapper(*args, **kwargs):
            stat[0] += 1
            children.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - children.pop()
                depth[0] -= 1
                if not depth[0]:
                    stat[2] += elapsed
                if children:
                    children[-1] += elapsed
            if flagged and result:
                stat[4] += 1
            return result

        return update_wrapper(wrapper, fn)

    def calls(self) -> dict:
        return {name: s[0] for name, s in sorted(self.stats.items())}


def liftsim_modules():
    """Import every liftsim submodule and return all liftsim namespaces."""
    import liftsim
    for info in pkgutil.iter_modules(liftsim.__path__):
        importlib.import_module(f"liftsim.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liftsim" or name.startswith("liftsim."))]


def install(tracer: Tracer) -> list:
    """Wrap every listed function; return the names left unpatched anywhere.

    An empty list means no liftsim namespace or class still holds an
    original function object.
    """
    modules = liftsim_modules()
    originals = []
    for layer, (modname, funcs) in LAYERS.items():
        home = sys.modules[modname]
        for func in funcs:
            name = metric_name(layer, func)
            if "." in func:
                cls_name, meth = func.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, original))
            else:
                original = getattr(home, func)
                wrapper = tracer.wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
            originals.append((name, original))
    left = []
    for name, original in originals:
        holders = [m.__name__ for m in modules
                   if any(v is original for v in vars(m).values())]
        holders += [f"{m.__name__}.{c.__name__}" for m in modules
                    for c in vars(m).values()
                    if isinstance(c, type) and original in vars(c).values()]
        if holders:
            left.append(f"{name} still bound in {', '.join(holders)}")
    return left
