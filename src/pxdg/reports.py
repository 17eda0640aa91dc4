"""The one writer of every table the commands emit: a header line, then one line
per row with each value through ``fmt``.  Floats carry 17 significant digits."""

import math
import os
import tempfile

__all__ = ["CONVERGENCE_COLUMNS", "convergence_csv", "csv_text", "write_atomic", "fmt"]

CONVERGENCE_COLUMNS = ("n", "h", "lux_error", "max_nodal_error", "broken_seminorm",
                       "interior_penalty", "dirichlet_penalty", "lifting_norm", "energy",
                       "iterations", "wall_time")


def fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def csv_text(header, rows, footer=()):
    """The header's names, one line per row of values, then the footer lines."""
    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines + list(footer)) + "\n"


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
    """One row per mesh, in ``CONVERGENCE_COLUMNS`` order, plus an empirical-order footer."""
    footer = []
    if len(rows) >= 2:
        ns = [r[0] for r in rows]
        for col in ("lux_error", "max_nodal_error", "interior_penalty",
                    "dirichlet_penalty", "lifting_norm"):
            i = CONVERGENCE_COLUMNS.index(col)
            orders = _orders(ns, [r[i] for r in rows])
            footer.append("# order[" + col + "]," + ",".join(f"{o:.4g}" for o in orders))
    return csv_text(CONVERGENCE_COLUMNS, rows, footer)


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
