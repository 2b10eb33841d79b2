"""Smoke test of the benchmark: every workload at toy size, untraced and traced.

One ``run.py --toy --trace 1`` call runs two untraced reps and one
traced rep of each workload.  The tests check that the runner emits every
metric ``BENCHMARK.json`` names, with its unit, direction and bound; that no
op fails; that reps and the traced rep agree on every virtual result; and
that the per-layer virtual ledger sums exactly to elapsed virtual time.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "toy.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--toy", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit(toy_run):
    result, line = toy_run
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, summary in result["workloads"].items():
        assert summary["metrics"].keys() == units.keys()
        assert all(summary["metrics"][name] > 0 for name in units), workload
        assert summary["per_layer"].keys() == layer_units.keys()
        for name, unit in layer_units.items():
            assert line["metrics"][f"{workload}.{name}"]["unit"] == unit


def test_no_op_fails(toy_run):
    result, line = toy_run
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for workload, summary in result["workloads"].items():
        assert summary["failed"] == 0, (workload, summary["failures"])


def test_reps_and_traced_rep_agree_on_virtual_results(toy_run):
    result, _line = toy_run
    for workload, summary in result["workloads"].items():
        digests = {rep["digest"] for rep in summary["reps"]}
        assert len(summary["reps"]) == 2 and len(digests) == 1, workload
        # Tracing wraps methods but must add no virtual time.
        assert summary["trace"]["virtual_digest"] in digests, workload


def test_layer_ledger_sums_to_elapsed_virtual_time(toy_run):
    result, _line = toy_run
    for workload, summary in result["workloads"].items():
        trace = summary["trace"]
        assert trace["ledger_ns"] == trace["virt_elapsed_ns"] > 0, workload
        layers = summary["per_layer"]
        total_ms = sum(v for k, v in layers.items() if k.endswith(".virt_self_ms"))
        assert total_ms == pytest.approx(layers["trace.virt_elapsed_ms"], rel=1e-9)


def test_only_attach_enters_core_attach(toy_run):
    result, _line = toy_run
    for workload, summary in result["workloads"].items():
        calls = summary["per_layer"]["core.attach.calls"]
        assert (calls > 0) == (workload == "attach"), workload


def test_benchmark_json_matches_the_runner(toy_run):
    result, _line = toy_run
    assert BENCHMARK["command"] == ["python3", "perf/run.py"]
    assert BENCHMARK["paths"] == ["perf"]
    assert BENCHMARK["run_seconds"] == result["seconds"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(result["workloads"])
    emitted = next(iter(result["workloads"].values()))
    assert {m["name"]: {k: m[k] for k in ("unit", "better", "bound")}
            for m in BENCHMARK["end_to_end"]} == emitted["spec"]
    assert {m["name"]: {k: m[k] for k in ("unit", "better")}
            for m in BENCHMARK["per_layer"]} == emitted["per_layer_spec"]
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_wall_metrics_take_each_steps_fastest_time_rescaled_by_the_probe():
    run = _load("run")

    def rep(steps, probes):
        return {"steps": steps, "op_steps": [1, 2], "probes": probes, "wall_s": sum(steps) / 1e9,
                "setup_s": 0.1, "digest": "d", "failures": [], "failed": 0, "attempted": 3,
                "op_virt_ns": [1], "native_virt_ns": 1, "cntr_virt_ns": 1, "extra": {},
                "peak_rss_mb": 1.0}

    ref = run.PROBE_REFERENCE_NS
    # A burst slows step 0 in the first rep and step 2 in the second; the
    # probes say the machine ran at half the reference speed throughout.
    reps = [rep([9000, 2000, 3000], [2 * ref, 3 * ref]),
            rep([1000, 2000, 8000], [3 * ref, 2 * ref])]
    # Each set-up is rescaled by the probes its own child timed.
    setups = [{"setup_s": s, "setup_probe_ns": p}
              for s, p in ((0.2, ref), (0.8, 2 * ref), (0.9, ref))]
    summary = run.summarize(reps, setups)
    assert summary["failed"] == 0
    metrics = summary["metrics"]
    assert metrics["wall_s"] == pytest.approx((1000 + 2000 + 3000) / 2 / 1e9)
    assert metrics["op_wall_p50_us"] == pytest.approx(2000 / 2 / 1e3)
    assert metrics["setup_s"] == pytest.approx(0.4)
    # Reps that cut the run into different steps did not do the same work.
    assert run.summarize([reps[0], rep([1000, 2000], [ref])], setups)["failed"] == 1


def test_compare_verdicts():
    compare = _load("compare")
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    same = list(zip(steady, steady))
    assert compare.verdict(steady, steady, same, 0.10, True) == "within bound"
    slower = [v * 1.2 for v in steady]
    assert compare.verdict(steady, slower, list(zip(steady, slower)), 0.10, True) == "worse"
    faster = [v * 0.8 for v in steady]
    assert compare.verdict(steady, faster, list(zip(steady, faster)), 0.10, True) == "better"
    noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.4, 0.6, 1.1, 0.9, 1.3]
    assert compare.verdict(noisy, steady, list(zip(noisy, steady)), 0.10, True) == "unresolved"
    # Higher-is-better metrics flip the direction.
    assert compare.verdict(steady, faster, list(zip(steady, faster)), 0.10, False) == "worse"
    # A wall-clock metric needs ten pairs that took turns at running first:
    # one run per side, or runs made one side after the other, cannot see the
    # machine's drift over minutes.
    assert compare.verdict(steady, slower, list(zip(steady, slower)), 0.10, True,
                           wall_clock=True, alternated=True) == "worse"
    assert compare.verdict(steady, slower, list(zip(steady, slower)), 0.10, True,
                           wall_clock=True, alternated=False) == "unresolved"
    assert compare.verdict([1.0], [1.2], [(1.0, 1.2)], 0.10, True,
                           wall_clock=True, alternated=True) == "unresolved"


def test_compare_checks_that_pairs_alternate():
    compare = _load("compare")

    def pairs(parent_first: list[bool]) -> list[tuple[dict, dict]]:
        return [({"started": 2 * i + (not first)}, {"started": 2 * i + first})
                for i, first in enumerate(parent_first)]

    assert compare.alternated(pairs([True, False] * 5))
    assert compare.alternated(pairs([True, False, True]))
    assert not compare.alternated(pairs([True] * 10))
    assert not compare.alternated([({"started": None}, {"started": 1.0})])


def test_compare_fails_when_known_divergences_rise(toy_run, tmp_path):
    compare = _load("compare")
    result, _line = toy_run
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps(result))
    assert compare.main([str(parent), str(parent)]) == 0
    worse = json.loads(json.dumps(result))
    worse["workloads"]["conformance"]["diagnostics"]["known_divergences"] += 1
    change = tmp_path / "change.json"
    change.write_text(json.dumps(worse))
    assert compare.main([str(parent), str(change)]) == 1
