"""CSV emission for solves and convergence sweeps. Floats carry 17 significant digits."""

import math
import os
import tempfile
from dataclasses import dataclass, fields

__all__ = ["ConvergenceRow", "convergence_csv", "write_atomic", "fmt"]


def fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    h: float
    lux_error: float
    max_nodal_error: float
    broken_seminorm: float
    interior_penalty: float
    dirichlet_penalty: float
    lifting_norm: float
    energy: float
    iterations: int
    wall_time: float


def _orders(ns, values):
    """Empirical orders log2(v_i / v_{i+1}) for a mesh sequence that halves h."""
    out = []
    for (n0, v0), (n1, v1) in zip(zip(ns, values), list(zip(ns, values))[1:]):
        if v0 > 0.0 and v1 > 0.0 and n1 != n0:
            out.append(math.log(v0 / v1) / math.log(n1 / n0))
        else:
            out.append(float("nan"))
    return out


def convergence_csv(rows):
    """CSV table with one row per mesh plus an empirical-order footer."""
    names = [f.name for f in fields(ConvergenceRow)]
    lines = [",".join(names)]
    for r in rows:
        lines.append(",".join(fmt(getattr(r, name)) for name in names))
    if len(rows) >= 2:
        ns = [r.n for r in rows]
        for col in ("lux_error", "max_nodal_error", "interior_penalty",
                    "dirichlet_penalty", "lifting_norm"):
            orders = _orders(ns, [getattr(r, col) for r in rows])
            lines.append("# order[" + col + "]," + ",".join(f"{o:.4g}" for o in orders))
    return "\n".join(lines) + "\n"


def write_atomic(path, text):
    """Write via a temp file and rename, so concurrent sweeps never interleave."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
