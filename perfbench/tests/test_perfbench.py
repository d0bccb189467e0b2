"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import basket  # noqa: E402
import common  # noqa: E402
import speed  # noqa: E402
import sweep  # noqa: E402
from probes import Patches, Probes, span_self_us  # noqa: E402


def _span(name, ts, dur, pid=1, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": pid, "tid": tid}


def test_span_self_time_subtracts_covered_child_intervals():
    # root [0,100] holds a [10,40] and b [40,70]; a holds c [15,25];
    # a second thread's span must not count as anyone's child.
    events = [
        _span("root", 0, 100), _span("a", 10, 30), _span("c", 15, 10),
        _span("b", 40, 30), _span("other", 20, 50, tid=1),
        {"name": "marker", "ph": "i", "ts": 50, "pid": 1, "tid": 0},
    ]
    self_us = span_self_us(events)
    assert self_us == {"root": 40, "a": 20, "c": 10, "b": 30, "other": 50}


def test_span_self_time_sums_repeated_names():
    events = [_span("cell", 0, 10), _span("probe", 2, 3),
              _span("cell", 20, 10), _span("probe", 20, 10)]
    assert span_self_us(events) == {"cell": 7, "probe": 13}


def test_probe_self_time_excludes_probed_callees():
    now = [0]

    def clock():
        return now[0]

    class Leaf:
        def work(self, cost):
            now[0] += cost

    class Outer:
        def __init__(self):
            self.leaf = Leaf()

        def run(self):
            now[0] += 5
            self.leaf.work(7)
            now[0] += 1
            self.leaf.work(2)

    probes = Probes(clock=clock)
    probes.patch(Outer, "run", "outer")
    probes.patch(Leaf, "work", lambda leaf: "leaf")
    try:
        Outer().run()
    finally:
        probes.remove()
    assert probes.take() == {"outer": (1, 15, 6), "leaf": (2, 9, 9)}
    assert not hasattr(Outer.run, "__wrapped__")
    assert probes.take() == {}


def test_patches_restore_class_and_mapping_entries():
    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        pass

    table = {"fig": len}
    patches = Patches()
    patches.replace(Child, "hook", lambda self: "patched")
    patches.replace(table, "fig", max)
    assert Child().hook() == "patched" and Base().hook() == "base"
    assert table["fig"] is max
    patches.undo()
    assert "hook" not in Child.__dict__ and Child().hook() == "base"
    assert table == {"fig": len}


def test_percentiles_and_sample_counts():
    values = [float(v) for v in range(52, 0, -1)]
    assert common.median(values) == 26.5
    assert common.percentile(values, 50) == 26.0
    assert common.percentile(values, 80) == 42.0
    assert common.samples_beyond(values, 80) == 10
    assert common.samples_beyond(values * 2, 80) == 20
    lines = basket.cell_lines(values)
    assert lines[0].split()[:2] == ["cell_s_p50", "26.0000"]
    assert "(n=52)" in lines[0]
    assert lines[1].split()[:2] == ["cell_s_p80", "42.0000"]
    assert "(n=52, 10 beyond)" in lines[1]


def test_result_line_has_exactly_the_contract_keys():
    payload = json.loads(common.result_line(
        4, 1, {"wall_s": (1.5, "s"), "setup_s": (0.25, "s")}))
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["correct"] is False
    assert payload["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}


def test_hermetic_env_clears_user_settings(monkeypatch, tmp_path):
    for name in ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_CODE_CACHE",
                 "REPRO_WORKLOAD_CACHE", "REPRO_LEDGER", "REPRO_BENCH_N"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
    env = common.hermetic_env(tmp_path)
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["PYTHONPATH"] == str(common.SRC)
    assert not any(k in env for k in ("REPRO_FAULTS", "REPRO_SANITIZE",
                                      "REPRO_CODE_CACHE", "REPRO_WORKLOAD_CACHE",
                                      "REPRO_LEDGER", "REPRO_BENCH_N"))


def test_seed_zero_reproduces_the_registry_workload(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOAD_CACHE", "0")
    inputs = basket.build_inputs(["eon"], 0)
    from repro.workloads import registry

    registry.clear_cache()
    trace, _ = registry.build("eon", basket.N_INSTRUCTIONS)
    assert inputs["eon"][0] == trace
    assert basket.build_inputs(["eon"], 1)["eon"][0] != trace


@pytest.fixture(scope="module")
def eon_inputs():
    return basket.build_inputs(["eon"], 0)


def test_cells_match_shipped_references(eon_inputs):
    checker = basket.Checker(basket.load_references(0))
    seconds, failures = basket.run_pass(basket.cells(["eon"]), eon_inputs, checker)
    assert len(seconds) == 4 and failures == []


def test_planted_stats_mismatch_makes_fail_ratio_nonzero(eon_inputs):
    references = dict(basket.load_references(0))
    ipc, cycles, digest = references["eon/GHB"]
    references["eon/GHB"] = [ipc, cycles, "0" * len(digest)]
    plan = basket.cells(["eon"])
    _, failures = basket.run_pass(plan, eon_inputs, basket.Checker(references))
    assert len(failures) == 1 and failures[0].startswith("eon/GHB")
    assert len(failures) / len(plan) > 0


def test_unreferenced_seed_checks_pass_against_pass(eon_inputs):
    checker = basket.Checker(None)
    plan = basket.cells(["eon"])
    assert basket.run_pass(plan, eon_inputs, checker)[1] == []
    checker.seen["eon/TK"] = [0.0, 0, "planted"]
    assert len(basket.run_pass(plan, eon_inputs, checker)[1]) == 1


def test_shipped_references_cover_both_baskets():
    payload = json.loads((basket.REFERENCES / "seed-0.json").read_text())
    names = set(basket.BASKETS["basket-lo"] + basket.BASKETS["basket-hi"])
    assert {key.split("/")[0] for key in payload["cells"]} == names
    miss = payload["base_l1d_miss"]
    assert max(miss[b] for b in basket.BASKETS["basket-lo"]) < min(
        miss[b] for b in basket.BASKETS["basket-hi"])


def test_sweep_pass_checks():
    expected = "table\n"
    summary = ("executor: 78 results, {} simulated, {} cache hits "
               "(0 memo, {} store, 0 deduped), wall 0.09s\n")
    assert sweep.check_pass(0, expected, summary.format(0, 78, 78), True,
                            expected) is None
    assert sweep.check_pass(0, expected, "", False, expected) is None
    assert "simulated" in sweep.check_pass(
        0, expected, summary.format(1, 77, 77), True, expected)
    assert "stdout" in sweep.check_pass(0, "other\n", "", False, expected)
    assert "exit status 1" in sweep.check_pass(1, expected, "", False, expected)


def test_speed_factor_uses_the_interval_or_its_nearest_samples():
    ms = 1_000_000
    ref = int(speed.REFERENCE_S * 1e9)
    samples = [(t * 100 * ms, cpu) for t, cpu in
               enumerate([ref, ref, 2 * ref, 2 * ref, 2 * ref, ref])]
    # Inside [200 ms, 400 ms] the loop ran at half the reference speed.
    assert speed.speed_factor(samples, 200 * ms, 400 * ms) == 0.5
    # An interval shorter than the period falls back to its neighbours.
    assert speed.speed_factor(samples, 10 * ms, 20 * ms) == 1.0
    with pytest.raises(ValueError):
        speed.speed_factor([], 0, 1)
