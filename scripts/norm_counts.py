#!/usr/bin/env python3
"""Modular sums of every Luxemburg norm in one pass of each benchmark workload.

Runs ``setup`` and one ``run_pass(seed=0)`` of each workload of
``perfbench/workloads.py`` (paper-figures, dg-dense, dg-limited, const-p2),
reading that module without editing it.  For every call of
``exponents.luxemburg_norm`` it prints the solve it belongs to, the number of
samples, the modular sums it took (calls of ``exponents._modular_at``, the
bracket and bisection trials, and of ``exponents._modular_and_slope``, the
Newton polish, both on the magnitudes |u| the norm takes once), how many of
them were Newton steps (the ``newton`` column, which tells the polish from
the bisection's binade search) and the norm as ``float.hex()``; a line per
workload gives its norms, sums, Newton steps and sums per norm, and a last
line the totals.  The output is deterministic, so two runs diffed check a
change to the root finding bitwise; ``tests/data/norm_counts.txt`` holds it,
and a test compares it with ``lines()``.  Nothing is written to disk.

    python3 scripts/norm_counts.py
    python3 scripts/norm_counts.py > norms.txt
"""

import contextlib
import os
import sys
import types
from unittest import mock

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads
from pxdg import exponents


def lines():
    """The header, one line per norm, a line per workload and the total line,
    as printed.  While they run, ``luxemburg_norm`` in every pxdg module (names
    imported with ``from .exponents import`` too) and ``_modular_at`` and
    ``_modular_and_slope`` in ``exponents`` count the norms and their sums."""
    norm = exponents.luxemburg_norm
    # run_pass only sets the ``case`` attribute of the tracer it is given
    case, rows = types.SimpleNamespace(case=""), []
    sums = {"_modular_at": 0, "_modular_and_slope": 0}

    def counted(name, fn):
        def counted_sums(*args):
            sums[name] += 1
            return fn(*args)
        return counted_sums

    def counted_norm(samples, values, fld):
        sums.update(dict.fromkeys(sums, 0))
        out = norm(samples, values, fld)
        newton = sums["_modular_and_slope"]
        rows.append((case.case, samples.xs.size, sums["_modular_at"] + newton, newton, out))
        return out

    out = [f"{'workload/solve':<32} {'samples':>7} {'sums':>5} {'newton':>6} {'norm':>24}"]
    norms = total = total_newton = 0
    with contextlib.ExitStack() as patches:
        for name in sums:
            patches.enter_context(
                mock.patch.object(exponents, name, counted(name, getattr(exponents, name))))
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "pxdg" and getattr(mod, "luxemburg_norm", None) is norm:
                patches.enter_context(mock.patch.object(mod, "luxemburg_norm", counted_norm))
        for name in workloads.BUILDERS:
            del rows[:]
            case.case = "setup"
            wl = workloads.setup(name)
            wl.run_pass(0, tracer=case)
            for label, samples, n_sums, newton, val in rows:
                out.append(f"{name + '/' + label:<32} {samples:>7} {n_sums:>5} {newton:>6} "
                           f"{val.hex():>24}")
            n, s, nw = len(rows), sum(r[2] for r in rows), sum(r[3] for r in rows)
            out.append(f"{name}: {n} norms, {s} sums, {nw} newton, "
                       f"{s / max(n, 1):.1f} sums per norm")
            norms, total, total_newton = norms + n, total + s, total_newton + nw
    out.append(f"total: {norms} norms, {total} sums, {total_newton} newton, "
               f"{total / max(norms, 1):.1f} sums per norm")
    return out


def main():
    print("\n".join(lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
