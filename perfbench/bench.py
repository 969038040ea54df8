"""Measurement loop, metrics and report of one benchmark run.

Load model: a closed loop with one caller. A single process runs one
`engine.fit` at a time, sequentially (jobs=1), over the workload's batch.

An untraced run times dlfmkit against `dlfmkit_v0`, a frozen copy of the
package as it was when the benchmark was defined. On a shared host the same
fit runs up to 1.6 times slower for tens of seconds at a time, so fit
seconds from different runs differ more than any bound a regression check
could use.
Both copies slow down together, so the ratio of two fits run back to back
holds steady. The run fits one instance with dlfmkit untimed, to finish lazy
set-up, and reads peak memory then, before the frozen copy is loaded. It
then fits the batch round-robin for the time window, each instance once with
each copy, back to back, alternating which goes first. One full round always
runs; after it, a pair starts only if it is expected to end inside the
window. Quality metrics come from the first round, so they depend on the
seed only.

A traced run fits each instance twice with dlfmkit, untraced and traced, and
the difference is the tracing overhead. Where the workload asks for it, it
then fits the batch on a process pool, whose results must equal the
sequential ones bit for bit.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import multiprocessing
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dlfmkit import engine

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline_seed.json"
SETUP_REPEATS = 5

# metric name -> unit, as BENCHMARK.json lists them
END_TO_END = {
    "fit_time_ratio": "ratio",
    "fit_cpu_ratio": "ratio",
    "peak_rss_mb": "MB",
    "final_objective": "objective",
    "label_accuracy": "fraction",
    "setup_s": "s",
}

PER_LAYER = {
    **{f"{name}.{stat}": ("count" if stat == "calls" else "s")
       for name in ("kernels.qp_solve", "kernels.project", "kernels.joint_prox",
                    "psolve.solve_p", "fsolve.solve_f_plain", "fsolve.solve_f_kl",
                    "model.loss_matrix", "model.batch_losses", "model.weighted_loss_grad",
                    "model.kl_chain_value", "model.validate")
       for stat in ("calls", "self_s")},
    "kernels.qp_solve.iters": "count",
    "kernels.qp_solve.unsolved": "count",
    "kernels.qp_solve.flops_computed": "flop",
    "psolve.solve_p.total_s": "s",
    "psolve.inner_iters": "count",
    "psolve.inner_cap_hits": "count",
    "fsolve.solve_f_kl.unconverged": "count",
    "engine.fit.self_s": "s",
    "engine.bcd_iters": "count",
    "engine.restarts_failed": "count",
    "engine.cpu_per_wall": "ratio",
    "engine.pool.fit_s": "s",
    "engine.pool.cpu_per_wall": "ratio",
    "engine.ipc_bytes_computed": "B",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}


@dataclass
class FitRecord:
    index: int  # position of the instance in the batch
    wall: float
    cpu: float
    result: engine.FitResult | None
    problems: list = field(default_factory=list)


@dataclass
class Pair:
    fit: FitRecord  # dlfmkit's fit, checked
    ref_wall: float  # dlfmkit_v0's fit of the same instance
    ref_cpu: float


def cpu_seconds() -> float:
    """CPU time of this process, all threads, plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_fit(batch, index: int, jobs: int = 1, tracer: tracing.Tracer | None = None) -> FitRecord:
    inst = batch[index]
    c0, t0 = cpu_seconds(), time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        res = engine.fit(inst.spec, inst.data, jobs=jobs)
    except Exception:  # a failed fit is counted and reported, and the run goes on
        return FitRecord(index, time.perf_counter() - t0, cpu_seconds() - c0, None,
                         [f"instance {inst.seed}: fit raised\n{traceback.format_exc()}"])
    finally:
        if tracer is not None:
            tracer.active = False
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    return FitRecord(index, wall, cpu, res, wl.check_fit(inst, res))


def run_pass(batch, jobs: int = 1) -> list[FitRecord]:
    return [run_fit(batch, i, jobs) for i in range(len(batch))]


def ref_fit(ref_engine, inst: wl.Instance) -> tuple[float, float]:
    """Wall and CPU seconds of the frozen copy's fit of one instance."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    ref_engine.fit(inst.spec, inst.data)
    return time.perf_counter() - t0, cpu_seconds() - c0


def run_pairs(batch, ref_batch, ref_engine, seconds: float) -> list[Pair]:
    """Fit the batch round-robin with both copies for about `seconds`.

    One full round always runs; after it, the next pair starts only if it is
    expected to end inside the window, judged by that instance's last pair.
    Each instance alternates from round to round which copy goes first.
    """
    start = time.perf_counter()
    last: dict[int, float] = {}
    pairs: list[Pair] = []
    for i in itertools.count():
        k, rounds = i % len(batch), i // len(batch)
        if rounds and time.perf_counter() - start + last[k] > seconds:
            return pairs
        if (k + rounds) % 2 == 0:
            rec = run_fit(batch, k)
            ref = ref_fit(ref_engine, ref_batch[k])
        else:
            ref = ref_fit(ref_engine, ref_batch[k])
            rec = run_fit(batch, k)
        pairs.append(Pair(rec, *ref))
        last[k] = rec.wall + ref[0]


def pass_wall(records) -> float:
    return sum(r.wall for r in records)


def trimmed_mean(values) -> float:
    """Mean of the values left after dropping the lowest and highest quarter.

    Robust to single fits slowed or sped up by other load on the machine.
    """
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut: len(v) - cut])


def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(values, p))
    return None


def ipc_bytes(batch, records) -> int:
    """Bytes a pool pass pickles: (spec, data) out and a result back, per restart."""
    total = 0
    for r in records:
        inst = batch[r.index]
        sent = len(pickle.dumps((inst.spec, inst.data)))
        back = len(pickle.dumps(r.result)) if r.result is not None else 0
        total += inst.spec.controls.restarts * (sent + back)
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: wl.Workload, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, one per repeat."""
    probe = HERE / "setup_probe.py"
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, str(probe), workload.name, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def blas_threads():
    """Default thread count of the OpenBLAS bundled with numpy, if it exposes one."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload and return metrics, failures and report lines."""
    batch = workload.make_batch(seed)
    pooled: list[FitRecord] = []
    pairs: list[Pair] = []
    if trace:
        timed, traced = [], []
        tracer = tracing.Tracer()
        with tracer:
            for i in range(len(batch)):
                # alternate which goes first, so drift in machine speed cancels
                if i % 2 == 0:
                    timed.append(run_fit(batch, i))
                    traced.append(run_fit(batch, i, tracer=tracer))
                else:
                    traced.append(run_fit(batch, i, tracer=tracer))
                    timed.append(run_fit(batch, i))
        if workload.pool_jobs:
            pooled = run_pass(batch, workload.pool_jobs)
            for seq, par in zip(timed, pooled):
                if seq.result is not None and par.result is not None:
                    par.problems += wl.check_same_fit(seq.result, par.result)
        records = timed + traced + pooled
    else:
        run_fit(batch, 0)  # warm-up, not counted; the window fits this instance again
        rss = peak_rss_mb()  # dlfmkit alone: the frozen copy is not loaded yet
        from dlfmkit_v0 import engine as ref_engine, experiments as ref_ex

        ref_batch = workload.make_batch(seed, ref_ex)
        ref_fit(ref_engine, ref_batch[0])  # warm-up
        pairs = run_pairs(batch, ref_batch, ref_engine, seconds)
        timed = [p.fit for p in pairs]
        records = timed

    first = timed[: len(batch)]
    problems = [p for r in records for p in r.problems]
    problems += wl.check_batch(workload, batch, [r.result for r in first])

    ok_first = [(batch[r.index], r.result) for r in first if r.result is not None]
    ok_timed = [r for r in timed if r.result is not None]
    out = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.problems),
        "problems": problems,
        "lines": [f"workload {workload.name}: seed {seed}, batch of {len(batch)} instances "
                  f"(m={workload.m}, {workload.restarts} restarts each"
                  + "".join(f", {k}={v}" for k, v in workload.limits)
                  + f"), trace={int(trace)}"],
        "metrics": None,
    }
    lines = out["lines"]
    if not ok_timed or not ok_first:
        return out

    walls = [r.wall for r in ok_timed]
    tail = tail_percentile(walls)
    lines.append(f"fit_s: {len(walls)} fits of {len(batch)} instances, "
                 f"median {statistics.median(walls):.4f} s, "
                 + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "too few fits for a tail percentile"))
    if pairs:
        ok_pairs = [p for p in pairs if p.fit.result is not None]
        ratios = [p.fit.wall / p.ref_wall for p in ok_pairs]
        q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        lines.append(f"dlfmkit_v0 fit_s: median {statistics.median(p.ref_wall for p in ok_pairs):.4f} s; "
                     f"time ratio of {len(ratios)} pairs: quartiles {q[0]:.4f} {q[1]:.4f} {q[2]:.4f}")
        same = all(np.array_equal(a.data.features, b.data.features)
                   and np.array_equal(a.data.observations, b.data.observations)
                   for a, b in zip(batch, ref_batch))
        lines.append("inputs of the two copies: " + ("identical" if same else "DIFFERENT, so the ratios compare different problems"))
    lines.append("fit walls by instance: " + json.dumps(
        [[round(r.wall, 4) for r in ok_timed if r.index == i] for i in range(len(batch))]))
    lines.append(f"failed_fraction: {out['failed']}/{out['attempted']} fits")

    if not trace:
        setups = setup_seconds(workload, seed)
        lines.append("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        values = {
            "fit_time_ratio": statistics.median(ratios),
            "fit_cpu_ratio": statistics.median(p.fit.cpu / p.ref_cpu for p in ok_pairs),
            "peak_rss_mb": rss,
            "final_objective": statistics.fmean(wl.final_objective(res) for _, res in ok_first),
            "label_accuracy": statistics.fmean(wl.accuracy(inst, res) for inst, res in ok_first),
            "setup_s": statistics.median(setups),
        }
        out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return out

    s = tracer.summary()
    spans, counters = s["spans"], s["counters"]
    traced_wall = pass_wall(traced)
    ok_pooled = [r for r in pooled if r.result is not None]
    values = {f"{name}.{stat}": spans[name][stat]
              for name in spans for stat in ("calls", "self_s")}
    values.update({k: counters[k] for k in tracing.COUNTERS if k in PER_LAYER})
    values.update({
        "psolve.solve_p.total_s": spans["psolve.solve_p"]["total_s"],
        "engine.bcd_iters": spans["psolve.solve_p"]["calls"],
        "engine.restarts_failed": counters["engine.restarts_started"] - counters["engine.restarts_finished"],
        "engine.cpu_per_wall": sum(r.cpu for r in timed) / pass_wall(timed),
        "engine.pool.fit_s": trimmed_mean([r.wall for r in ok_pooled]) if ok_pooled else 0.0,
        "engine.pool.cpu_per_wall": sum(r.cpu for r in pooled) / pass_wall(pooled) if pooled else 0.0,
        "engine.ipc_bytes_computed": ipc_bytes(batch, pooled),
        "trace.pass_s": traced_wall,
        "trace.overhead_s": traced_wall - pass_wall(timed),
        "trace.coverage": sum(v["self_s"] for v in spans.values()) / traced_wall,
    })
    lines.append(f"traced pass: {s['span_count']} spans over {traced_wall:.4f} s, "
                 f"untraced pass {pass_wall(timed):.4f} s")
    if pooled:
        lines.append(f"pool pass (jobs={workload.pool_jobs}) fit walls: "
                     + json.dumps([round(r.wall, 4) for r in pooled]))
    out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    return out


def layer_table(name: str, metrics: dict) -> list[str]:
    """Per-layer values beside the ones recorded at the seed commit."""
    base = {}
    if BASELINE.is_file():
        base = json.loads(BASELINE.read_text())["workloads"].get(name, {})
    rows = [f"{'metric':<34} {'value':>14} {'seed commit':>14}  unit"]
    for k, v in metrics.items():
        b = base.get(k)
        rows.append(f"{k:<34} {v['value']:>14.6g} {'-' if b is None else format(b, '14.6g'):>14}  {v['unit']}")
    return rows


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    if name not in wl.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {name!r}; choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[name]
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    out = measure(workload, seed, seconds, trace)
    for line in out["lines"]:
        print(line)
    for p in out["problems"]:
        print("CHECK FAILED " + p)
    if out["metrics"] is None:
        print("benchmark: no fit finished, no metrics", file=sys.stderr)
        return 1
    if trace:
        print("\n".join(layer_table(name, out["metrics"])))
    else:
        for k, v in out["metrics"].items():
            print(f"{k}: {v['value']!r} {v['unit']}")
    correct = not out["problems"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": out["metrics"]}))
    return 0 if correct else 1
