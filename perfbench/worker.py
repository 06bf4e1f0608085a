"""One benchmark call in a fresh interpreter.

Usage: python3 worker.py '<json request>'

The request names the workload, the unit input and a mode: ``plain``,
``traced`` (layer wrappers installed before the inputs are built) or
``sections`` (verify_corpus only: traced, one single-section CorpusSpec per
key).  The worker prints one JSON line: setup and call times, peak RSS, the
output digest, any check problems and, when traced, the layer statistics.
liftsim must be importable (run.py puts ``src`` on PYTHONPATH).
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main(request: dict) -> dict:
    import liftsim  # noqa: F401  (timed as part of set-up)
    from tracer import Tracer, install
    from workloads import WORKLOADS

    work = WORKLOADS[request["workload"]]
    mode = request["mode"]
    unit = request["unit"]
    golden = json.loads((HERE / "golden.json").read_text())[work.name]
    out = {"unbound": []}
    tracer = None
    if mode != "plain":
        tracer = Tracer()
        out["unbound"] = install(tracer)
    inputs = work.setup(unit)
    setup_done = time.perf_counter()
    try:
        if mode == "sections":
            result, out["sections"] = work.run_sections(inputs)
        else:
            result = work.run(inputs)
        digest, problems, info = work.check(result, unit, golden)
    except Exception as exc:  # a failed call is counted, not fatal
        digest, problems, info = None, [f"{type(exc).__name__}: {exc}"], {}
    out.update(wall_s=time.perf_counter() - setup_done, setup_s=setup_done - START,
               rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               digest=digest, problems=problems, info=info)
    if tracer is not None:
        out["stats"] = tracer.stats
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
