"""One measured invocation of ``chemfv.cli.main`` in a fresh process.

Usage: ``python3 bench/child.py SPEC.json`` where the spec (written by
``bench/run.py``) names the config file, the ``--set`` overrides, the argv for
``main``, whether to trace, and where to write the result.  The parent sets
``PYTHONPATH`` so that ``chemfv`` is imported from the checkout's ``src/``.

The child times, in order:

* set-up: ``import chemfv`` (numpy included) and ``chemfv.cli``, then one
  ``parse_config`` of the workload's config;
* the ``main([...])`` call, with the tracer installed only when asked.

With tracing on, the public functions of each module are wrapped from here (no
source file is touched).  Each call becomes a span ``[parent, name, start,
end, count]`` kept in memory and written with the result when the child ends.
"""
from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

# (module, attribute, span name).  ``chemfv.solver.run`` looks ``step`` up at
# call time, the CLI's monitor hook calls ``monitors.record`` through the
# module, and ``record`` calls ``phi`` as a module global, so patching these
# attributes sees every call.  Grid operators are wrapped where the monitors
# and the oracles bind them.
TRACED = [
    ("chemfv.cli", "run", "solver.run"),
    ("chemfv.solver", "step", "solver.step"),
    ("chemfv.monitors", "record", "monitors.record"),
    ("chemfv.monitors", "phi", "monitors.phi"),
    ("chemfv.monitors", "gradient_cells", "grid.gradient_cells"),
    ("chemfv.monitors", "integrate", "grid.integrate"),
    ("chemfv.oracle", "gradient_cells", "grid.gradient_cells"),
    ("chemfv.oracle", "hessian", "grid.hessian"),
    ("chemfv.oracle", "integrate", "grid.integrate"),
    ("chemfv.cli", "parse_config", "config.parse_config"),
    ("chemfv.cli", "build_initial_data", "initial.build_initial_data"),
    ("chemfv.cli", "evaluate_certificate", "certificates.evaluate_certificate"),
    ("chemfv.cli", "verify_laplacian_vs_hessian", "oracle.verify_laplacian_vs_hessian"),
    ("chemfv.cli", "verify_hessian_gradient", "oracle.verify_hessian_gradient"),
    ("chemfv.cli", "verify_gradient_power_hessian", "oracle.verify_gradient_power_hessian"),
    ("chemfv.cli", "verify_young_combination", "oracle.verify_young_combination"),
    ("chemfv.cli", "verify_pbar_relations", "oracle.verify_pbar_relations"),
    ("chemfv.cli", "estimate_gn_constant", "oracle.estimate_gn_constant"),
]


def _count_of(result) -> int:
    """Work a call reports about itself: steps of a run, trials of a verdict."""
    for attr in ("steps", "trials_run"):
        value = getattr(result, attr, None)
        if isinstance(value, int):
            return value
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        span = [self._stack[-1] if self._stack else -1, name, 0.0, 0.0, 1]
        self.spans.append(span)
        self._stack.append(sid)
        span[2] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        span[4] = _count_of(out)
        return out

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, traced)


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())

    t0 = time.perf_counter()
    import chemfv
    import chemfv.cli
    from chemfv.config import parse_config
    parse_config(Path(spec["config"]).read_text(), tuple(spec["overrides"]))
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        for module_name, attr, name in TRACED:
            tracer.wrap(importlib.import_module(module_name), attr, name)

    t1 = time.perf_counter()
    if tracer is None:
        code = chemfv.cli.main(spec["argv"])
    else:
        code = tracer.call("cli.main", chemfv.cli.main, spec["argv"])
    wall_s = time.perf_counter() - t1

    import numpy
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "chemfv_file": chemfv.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
