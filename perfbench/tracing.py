"""Span tracer for the traced benchmark run.

The tracer replaces public functions of the dlfmkit modules with timing
wrappers, in this process only. Calls inside the package resolve through
module globals, so nested calls are recorded as well: `joint_prox` calling
`project`, or `f_regularizer_value` calling `kl_chain_value`.

Each span records its name, start, end and parent span. Spans are kept in
memory as flat arrays and reduced to per-name call counts and self time when
the run ends. A span's self time is its duration minus the time its child
spans cover.

`engine._run_restart` is never wrapped: the process pool pickles it by its
qualified name, and a wrapper cannot be pickled that way. Restarts are
counted instead from `solve_p` calls without a warm start and from `harden`,
which every finished restart calls once.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from dlfmkit import engine, fsolve, kernels, model, psolve

# (module, function) pairs recorded as spans; the metric prefix is
# "<module>.<function>"
TIMED = (
    (engine, "fit"),
    (psolve, "solve_p"),
    (fsolve, "solve_f_plain"),
    (fsolve, "solve_f_kl"),
    (kernels, "qp_solve"),
    (kernels, "project"),
    (kernels, "joint_prox"),
    (model, "validate"),
    (model, "loss_matrix"),
    (model, "batch_losses"),
    (model, "weighted_loss_grad"),
    (model, "kl_chain_value"),
)

COUNTERS = (
    "psolve.inner_iters",
    "psolve.inner_cap_hits",
    "kernels.qp_solve.iters",
    "kernels.qp_solve.unsolved",
    "kernels.qp_solve.flops_computed",
    "fsolve.solve_f_kl.unconverged",
    "engine.restarts_started",
    "engine.restarts_finished",
)


def qp_iteration_flops(rows: int, n: int) -> int:
    """Flops of the matrix-vector products in one ADMM iteration.

    A^T v, M^-1 v and A x each cost one multiply-add per matrix entry, counted
    as two flops. Factorisations and the residual checks every few iterations
    are left out.
    """
    return 2 * (2 * rows * n + n * n)


class Tracer:
    """Records spans and counters while `active`."""

    def __init__(self):
        self.names = [f"{mod.__name__.rsplit('.', 1)[-1]}.{fn}" for mod, fn in TIMED]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.active = False
        self._stack: list[int] = []
        self._saved: list = []

    # -- installation --------------------------------------------------------

    def install(self):
        hooks = {
            "psolve.solve_p": (self._before_solve_p, self._after_solve_p),
            "kernels.qp_solve": (None, self._after_qp_solve),
            "fsolve.solve_f_kl": (None, self._after_solve_f_kl),
        }
        for i, (mod, fn) in enumerate(TIMED):
            orig = getattr(mod, fn)
            self._saved.append((mod, fn, orig))
            setattr(mod, fn, self._wrap(i, orig, *hooks.get(self.names[i], (None, None))))
        # a finished restart hardens its assignment exactly once
        orig = fsolve.harden
        self._saved.append((fsolve, "harden", orig))
        setattr(fsolve, "harden", self._count_finished(orig))

    def uninstall(self):
        for mod, fn, orig in reversed(self._saved):
            setattr(mod, fn, orig)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, nid, fn, before, after):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_finished(self, fn):
        def counted(*args, **kwargs):
            if self.active:
                self.counters["engine.restarts_finished"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- counters read from return values ------------------------------------

    def _before_solve_p(self, args, kwargs):
        # the first block-descent iteration of a restart has no warm start
        warm = kwargs["warm"] if "warm" in kwargs else (args[3] if len(args) > 3 else None)
        if warm is None:
            self.counters["engine.restarts_started"] += 1

    def _after_solve_p(self, args, out):
        c = self.counters
        c["psolve.inner_iters"] += int(sum(out.inner_iterations))
        c["psolve.inner_cap_hits"] += sum(s == psolve.P_MAX_ITER for s in out.statuses)

    def _after_qp_solve(self, args, sol):
        c = self.counters
        prob = args[0]
        c["kernels.qp_solve.iters"] += sol.iterations
        c["kernels.qp_solve.unsolved"] += sol.status != kernels.SOLVED
        c["kernels.qp_solve.flops_computed"] += sol.iterations * qp_iteration_flops(*prob.A.shape)

    def _after_solve_f_kl(self, args, out):
        self.counters["fsolve.solve_f_kl.unconverged"] += not out[1]

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self time and total time, plus the counters."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": int(sel.sum()),
                "self_s": float(own[sel].sum()),
                "total_s": float(dur[sel].sum()),
            }
        return {"spans": out, "counters": dict(self.counters), "span_count": int(dur.size)}
