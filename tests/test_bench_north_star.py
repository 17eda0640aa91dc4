"""``scripts/bench_north_star.py`` records a case with every field that its
``BENCH_*.json`` files hold per case, and leaves the program as it found it."""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans  # noqa: E402
from pxdg import band, optimize  # noqa: E402
from scripts import bench_north_star  # noqa: E402


def test_a_recorded_case_has_every_field():
    band_solve, solve_dg = band.KacanovBand.solve, optimize.solve_dg
    case = bench_north_star.record("dg", 10)
    assert band.KacanovBand.solve is band_solve and optimize.solve_dg is solve_dg
    assert set(case) == {"method", "elements", "steps", "evals", "band_solves", "newton_steps",
                         "stop_reason", "gap_rel", "energy", "energy_hex", "wall_s", "layers"}
    layers = {name for name, _ in spans.LAYER_METRICS} - {"trace.overhead_s"}
    assert set(case["layers"]) == layers | {"band.solve_s"}
    assert (case["method"], case["elements"], case["stop_reason"]) == ("dg", 10, "converged")
    assert case["band_solves"] >= case["steps"] >= 1
    assert case["layers"]["optimize.iterations"] == case["steps"]
    assert case["layers"]["functional.evals"] == case["evals"]
    assert float.fromhex(case["energy_hex"]) == case["energy"]
    assert all(v >= 0.0 for v in case["layers"].values()) and case["wall_s"] > 0.0
    json.dumps(case, default=int)
