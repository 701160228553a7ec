#!/usr/bin/env python3
"""Self-tests of the benchmark (run from anywhere):

    python3 perfbench/test_run.py

They check the metric tables against BENCHMARK.json, that every output
check in run.py counts a perturbed digest or verdict as a failed operation,
and that GLITCHMASK_* variables never reach the bench binary.  The last
test builds the binary if .bench_build/ does not hold it yet.
"""

import copy
import importlib.util
import json
import os
import re
import struct
import subprocess
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_hex(x):
    return struct.pack(">d", x).hex()


def campaign_check(t1=1.5, t2=2.0, t3=1.0, toggles=150_000_000, top=None):
    check = {"t": [run_hex(t1), run_hex(t2), run_hex(t3)],
             "t_value": [t1, t2, t3], "toggles": toggles, "traces": 1024}
    if top is not None:
        check["top"] = top
    return check


def raw_report(workload, checks, errors=(), attempted=None):
    return {"workload": workload, "errors": list(errors), "checks": checks,
            "attempted": len(checks) if attempted is None else attempted,
            "metrics": {name: 1.0 for name in run.END_TO_END},
            "layers": {name: 1.0 for name in run.PER_LAYER}}


def des_raw():
    return raw_report("des_tvla", [campaign_check() for _ in range(3)])


def gadget_raw():
    top = [["x_s1", run_hex(1.2), 524109]]
    return raw_report("gadget_pd_attr",
                      [campaign_check(1.1, 550.0, top=copy.deepcopy(top))
                       for _ in range(3)])


class MetricTables(unittest.TestCase):
    def test_every_metric_name_is_well_formed(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)


class OutputChecks(unittest.TestCase):
    def assert_failed(self, workload, raw, expected):
        failed, _, notes = run.evaluate(workload, raw)
        self.assertEqual(failed, expected, notes)
        result, _, _ = run.result_line(workload, raw, trace=False)
        self.assertEqual(result["correct"], expected == 0)
        self.assertEqual(result["failed"], expected)

    def test_clean_reports_pass(self):
        self.assert_failed("des_tvla", des_raw(), 0)
        self.assert_failed("gadget_pd_attr", gadget_raw(), 0)

    def test_perturbed_des_digest_fails(self):
        raw = des_raw()
        raw["checks"][2]["toggles"] += 1
        self.assert_failed("des_tvla", raw, 1)

    def test_des_first_order_leak_fails(self):
        raw = des_raw()
        for check in raw["checks"]:
            check["t_value"][0] = 4.6
        self.assert_failed("des_tvla", raw, 3)

    def test_perturbed_gadget_attribution_fails(self):
        raw = gadget_raw()
        raw["checks"][1]["top"][0][0] = "g0/z0"
        self.assert_failed("gadget_pd_attr", raw, 1)

    def test_gadget_missing_second_order_leak_fails(self):
        raw = gadget_raw()
        raw["checks"][0]["t_value"][1] = 4.0
        self.assert_failed("gadget_pd_attr", raw, 1)

    def test_reported_errors_fail(self):
        raw = gadget_raw()
        raw["errors"] = ["service layers: submit answered with 'overloaded'"]
        self.assert_failed("gadget_pd_attr", raw, 1)

    def test_digest_ignores_timing_but_not_results(self):
        a, b = des_raw(), copy.deepcopy(des_raw())
        self.assertEqual(run.evaluate("des_tvla", a)[1], run.evaluate("des_tvla", b)[1])
        b["checks"][0]["t"][0] = run_hex(1.5000000000000002)
        for check in b["checks"]:
            check["t"][0] = b["checks"][0]["t"][0]
        self.assertNotEqual(run.evaluate("des_tvla", a)[1], run.evaluate("des_tvla", b)[1])


class Hermetic(unittest.TestCase):
    PLANTED = {"GLITCHMASK_BACKEND": "compiled", "GLITCHMASK_COMPILED_LANES": "128",
               "GLITCHMASK_LANES": "1", "GLITCHMASK_WORKERS": "3"}

    def test_run_py_scrubs_planted_variables(self):
        with mock.patch.dict(os.environ, self.PLANTED):
            env = run.clean_env()
        self.assertFalse([k for k in env if k.startswith("GLITCHMASK_")])

    def test_planted_backend_does_not_reach_the_bench_binary(self):
        os.chdir(run.ROOT)
        binary, _ = run.build(run.BUILD_DIR)
        clean = run.clean_env()
        planted = dict(clean, **self.PLANTED)
        stamp = [subprocess.run([str(binary), "stamp"], env=env, check=True,
                                capture_output=True, text=True).stdout
                 for env in (clean, planted)]
        self.assertEqual(json.loads(stamp[0]), json.loads(stamp[1]))


if __name__ == "__main__":
    unittest.main()
