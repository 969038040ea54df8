"""Fast self-test of the benchmark, on tiny versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, in
both modes, that dlfmkit and its frozen copy build the same inputs, and that
the correctness checks catch a broken fit.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_dlfmkit()

import bench  # noqa: E402
import workloads as wl  # noqa: E402
from dlfmkit import engine  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "kmeans_qp": dict(m=40, restarts=2, batch=2),
    "mixture_large": dict(m=300, restarts=2, batch=2),
    "chain_iohmm": dict(m=60, batch=2),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, changes in TINY.items():
        monkeypatch.setitem(wl.WORKLOADS, name, dataclasses.replace(wl.WORKLOADS[name], **changes))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def test_every_workload_is_listed():
    assert set(TINY) == set(wl.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace, tiny, capsys):
    bench.main(name, seed=0, seconds=0.1, trace=trace)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace:
        # the layer spans cover the traced fits, so self times add up to them
        assert 0.95 <= result["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9


def test_same_seed_gives_same_batch(tiny):
    a, b = (wl.WORKLOADS["chain_iohmm"].make_batch(3) for _ in range(2))
    assert [x.seed for x in a] == [y.seed for y in b]
    assert all(np.array_equal(x.data.features, y.data.features) for x, y in zip(a, b))


def test_both_copies_build_the_same_batch(tiny):
    from dlfmkit_v0 import experiments as ref_ex

    for w in wl.WORKLOADS.values():
        for x, y in zip(w.make_batch(3), w.make_batch(3, ref_ex)):
            assert np.array_equal(x.data.features, y.data.features)
            assert np.array_equal(x.data.observations, y.data.observations)
            assert dataclasses.asdict(x.spec.controls) == dataclasses.asdict(y.spec.controls)


def test_corrupted_theta_fails_the_feasibility_check(tiny):
    inst = wl.WORKLOADS["kmeans_qp"].make_batch(0)[0]
    res = engine.fit(inst.spec, inst.data)
    assert wl.check_fit(inst, res) == []
    res.thetas[0] = res.thetas[0] + 5.0  # far outside the polytope
    assert any("violates its constraints" in p for p in wl.check_fit(inst, res))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kmeans_qp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
