"""In-memory spans around the public entry points of each ``pxdg`` module.

The program is not edited: ``Tracer.install`` rebinds every module attribute
that holds one of the traced functions (so names imported with ``from .x
import y`` are covered too), and ``uninstall`` puts the originals back.  Each
call becomes a ``Span``; ``case`` is the solve it belongs to and ``size`` the
number of points of an ``ExactSolution.u`` call.
"""

import functools
import statistics
import sys
import time
from typing import NamedTuple

# (module, attribute, span name); "Class.method" attributes are patched on the class.
ENTRY_POINTS = [
    ("pxdg.exact", "build_exact", "build_exact"),
    ("pxdg.exact", "ExactSolution.u", "exact_u"),
    ("pxdg.functional", "discrete_assembly", "assembly"),
    ("pxdg.functional", "continuous_assembly", "assembly"),
    ("pxdg.lifting", "lift_matrix", "lift_matrix"),
    ("pxdg.lifting", "lift", "lift"),
    ("pxdg.optimize", "solve_dg", "solve"),
    ("pxdg.optimize", "solve_cg", "solve"),
    ("pxdg.problems", "solution_errors", "solution_errors"),
    ("pxdg.exponents", "luxemburg_norm", "luxemburg"),
    ("pxdg.broken", "broken_seminorm", "seminorm"),
    ("pxdg.broken", "BrokenFunction.__call__", "point_eval"),
]

# (metric, unit) in the order they are reported with --trace 1.
LAYER_METRICS = [
    ("exact.build_s", "s"),
    ("exact.u_points", "count"),
    ("exact.u_s", "s"),
    ("functional.assembly_s", "s"),
    ("lifting.lift_matrix_s", "s"),
    ("functional.evals", "count"),
    ("functional.eval_s", "s"),
    ("functional.eval_us", "us"),
    ("optimize.iterations", "count"),
    ("optimize.evals_per_iter", "evals/iter"),
    ("optimize.ls_failures", "count"),
    ("optimize.solve_s", "s"),
    ("optimize.self_s", "s"),
    ("optimize.self_ms_per_iter", "ms"),
    ("problems.solution_errors_s", "s"),
    ("exponents.luxemburg_calls", "count"),
    ("exponents.luxemburg_s", "s"),
    ("broken.seminorm_s", "s"),
    ("broken.point_evals", "count"),
    ("broken.point_eval_s", "s"),
    ("lifting.lift_s", "s"),
    ("trace.overhead_s", "s"),
]



class Span(NamedTuple):
    id: int
    name: str
    parent: int   # 0 at top level
    case: str
    phase: str    # "setup" or "pass<i>"
    start: float
    end: float
    size: int

    @property
    def duration(self):
        return self.end - self.start


# Counts that must repeat exactly between passes: the solvers are deterministic.
COUNTS = ["optimize.iterations", "functional.evals", "optimize.ls_failures",
          "exact.u_points", "exponents.luxemburg_calls", "broken.point_evals"]


class Tracer:
    def __init__(self):
        self.spans = []
        self.case = ""
        self.phase = "setup"
        self._stack = [0]
        self._next_id = 1
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                size = getattr(args[1], "size", 1) if name == "exact_u" else 1
                self.spans.append(Span(sid, name, parent, self.case, self.phase, t0, t1, size))
        return traced

    def install(self, assemblies):
        """Wrap the entry points and the ``value_and_grad`` of the given cached assemblies."""
        for modname, attr, name in ENTRY_POINTS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for other in [m for n, m in sys.modules.items() if n.split(".")[0] == "pxdg"]:
                for key, val in list(vars(other).items()):
                    if val is orig:
                        self._patched.append((other, key, orig))
                        setattr(other, key, wrapper)
        for asm in assemblies:
            self._patched.append((asm, "value_and_grad", None))
            asm.value_and_grad = self._wrap("value_and_grad", asm.value_and_grad)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            if orig is None:
                del owner.__dict__[key]
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(Span._fields) + "\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")


def _self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = {}
    for s in spans:
        child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def layer_metrics(spans, phase, reports):
    """Per-layer numbers of one traced pass (or of set-up, for the set-up layers)."""
    mine = [s for s in spans if s.phase == phase]
    own = _self_times(mine)
    names = {s.id: s.name for s in mine}

    def total(name, self_time=False):
        return sum((own[s.id] if self_time else s.duration for s in mine if s.name == name), 0.0)

    def count(name, key=lambda s: 1):
        return sum(key(s) for s in mine if s.name == name)

    iters = sum(r.iterations for r in reports)
    evals = count("value_and_grad")
    eval_s = total("value_and_grad")
    # lift_matrix under an assembly is set-up; under lift() it is part of lift_s
    lm_setup = sum(s.duration for s in mine
                   if s.name == "lift_matrix" and names.get(s.parent) == "assembly")
    return {
        "exact.build_s": total("build_exact"),
        "exact.u_points": count("exact_u", key=lambda s: s.size),
        "exact.u_s": total("exact_u"),
        "functional.assembly_s": total("assembly", self_time=True),
        "lifting.lift_matrix_s": lm_setup,
        "functional.evals": evals,
        "functional.eval_s": eval_s,
        "functional.eval_us": 1e6 * eval_s / max(evals, 1),
        "optimize.iterations": iters,
        "optimize.evals_per_iter": evals / max(iters, 1),
        "optimize.ls_failures": sum(r.line_search_failures for r in reports),
        "optimize.solve_s": total("solve"),
        "optimize.self_s": total("solve", self_time=True),
        "optimize.self_ms_per_iter": 1e3 * total("solve", self_time=True) / max(iters, 1),
        "problems.solution_errors_s": total("solution_errors", self_time=True),
        "exponents.luxemburg_calls": count("luxemburg"),
        "exponents.luxemburg_s": total("luxemburg"),
        "broken.seminorm_s": total("seminorm", self_time=True),
        "broken.point_evals": count("point_eval"),
        "broken.point_eval_s": total("point_eval"),
        "lifting.lift_s": total("lift"),
    }


SETUP_METRICS = ("exact.build_s", "functional.assembly_s", "lifting.lift_matrix_s")


def combine(setup, passes, overhead_s):
    """Set-up layers from the traced set-up, counts from the first traced pass
    (``count_mismatches`` checks the others), times as medians over traced passes."""
    out = {}
    for name, _ in LAYER_METRICS:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        elif name in SETUP_METRICS:
            out[name] = setup[name]
        elif name in COUNTS:
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out


def count_mismatches(passes):
    """Names of the counts that differ between traced passes (should be none)."""
    return [c for c in COUNTS if len({p[c] for p in passes}) > 1]
