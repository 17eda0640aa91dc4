"""The benchmark's workloads run on the program as it is: one pass of each,
with every solve converged and every pinned value reproduced.  The benchmark
calls ``pxdg`` through ``perfbench/workloads.py``, so a change to a name,
signature or result it uses fails here first."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.workloads import BUILDERS, setup  # noqa: E402


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_workload_pass_has_no_failure(name):
    outcomes = setup(name).run_pass(0)
    assert outcomes
    assert [(o.label, o.mismatches) for o in outcomes if o.failed] == []
