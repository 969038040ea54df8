"""Command-line front end: fit a configured model, synthesize benchmark
data, or reproduce a canned study.

Exit codes: 0 success, 2 input or validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, engine, experiments, model

SCHEMA_VERSION = 1


class CliInputError(Exception):
    """Bad config, data, or arguments; maps to exit code 2."""


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def canonical_json(obj) -> str:
    """Deterministic serialization; re-serializing a parse is byte-identical."""
    return json.dumps(_plain(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _fingerprint(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------


def _require_keys(d: dict, allowed: set, required: set, path: str):
    if not isinstance(d, dict):
        raise CliInputError(f"{path}: must be an object")
    for key in d:
        if key not in allowed:
            raise CliInputError(f"{path}.{key}: unknown key")
    for key in required:
        if key not in d:
            raise CliInputError(f"{path}.{key}: missing required key")


def _kind(d: dict, path: str) -> str:
    if not isinstance(d["kind"], str):
        raise CliInputError(f"{path}.kind: must be a string")
    return d["kind"]


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise CliInputError(f"{path}: must be a list")
    return value


def _float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise CliInputError(f"{path}: must be a number") from None


def _floats(value, path: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise CliInputError(f"{path}: must be a number or a rectangular array of numbers") from None


# the keys each atom kind takes besides "kind", all of them required; a kind
# not listed takes none
_LOSS_KEYS = {model.LP_REGRESSION: ("order",), model.HUBER: ("delta",)}
_CONSTRAINT_KEYS = {
    model.BOX: ("lo", "hi"),
    model.POLYHEDRON: ("A", "b"),
    model.NORM_BALL2: ("radius",),
    model.SUM_EQUALS: ("value",),
}
_ARRAY_KEYS = {"lo", "hi", "A", "b"}


def _atom_values(d: dict, path: str, keys: dict, known, what: str):
    """(kind, {key: value}) of one atom object, holding exactly its kind's keys."""
    _require_keys(d, {"kind"}.union(*keys.values()), ("kind",), path)
    kind = _kind(d, path)
    if kind not in known:
        raise CliInputError(f"{path}.kind: unknown {what} kind {kind!r}")
    names = keys.get(kind, ())
    _require_keys(d, {"kind", *names}, names, path)
    return kind, {k: (_floats if k in _ARRAY_KEYS else _float)(d[k], f"{path}.{k}") for k in names}


def _parse_loss(d: dict, path: str) -> model.LossAtom:
    kind, values = _atom_values(d, path, _LOSS_KEYS, model.LOSS_KINDS, "loss")
    return model.LossAtom(kind, **values)


def _parse_constraint(d: dict, path: str) -> model.ConstraintAtom:
    kind, values = _atom_values(d, path, _CONSTRAINT_KEYS, model.CONSTRAINT_KINDS, "constraint")
    if kind == model.BOX:
        return model.box(**values)
    if kind == model.POLYHEDRON:
        return model.polyhedron(**values)
    return model.ConstraintAtom(kind, **values)


def _parse_regularizer(d: dict, path: str) -> model.RegularizerAtom:
    _require_keys(d, {"kind", "weight"}, {"kind", "weight"}, path)
    return model.RegularizerAtom(_kind(d, path), _float(d["weight"], f"{path}.weight"))


def _parse_controls(d: dict) -> model.SolverControls:
    fields = {f.name: f.default for f in dataclasses.fields(model.SolverControls)}
    _require_keys(d, set(fields), set(), "config.controls")
    values = {}
    for key, value in d.items():
        path = f"config.controls.{key}"
        # each control keeps the type of its default
        if not isinstance(fields[key], int):
            values[key] = _float(value, path)
        elif isinstance(value, int) and not isinstance(value, bool):
            values[key] = value
        else:
            raise CliInputError(f"{path}: must be an integer")
    return model.SolverControls(**values)


def parse_config(text: str):
    """Parse a JSON fit config into (ModelSpec, data options dict)."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliInputError("config: must be a JSON object")
    _require_keys(cfg, {"schema_version", "model", "controls", "data"}, {"schema_version", "model"}, "config")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise CliInputError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {cfg['schema_version']!r}"
        )

    mcfg = cfg["model"]
    _require_keys(
        mcfg,
        {"K", "n", "loss", "losses", "constraints", "constraints_per_factor", "p_regularizers", "f_regularizers"},
        {"K", "n"},
        "config.model",
    )
    K, n = mcfg["K"], mcfg["n"]
    if not isinstance(K, int) or not isinstance(n, int):
        raise CliInputError("config.model: K and n must be integers")

    if "losses" in mcfg:
        if "loss" in mcfg:
            raise CliInputError("config.model: give either loss or losses, not both")
        losses = tuple(
            _parse_loss(d, f"config.model.losses[{i}]")
            for i, d in enumerate(_list(mcfg["losses"], "config.model.losses"))
        )
    elif "loss" in mcfg:
        losses = tuple([_parse_loss(mcfg["loss"], "config.model.loss")] * K)
    else:
        raise CliInputError("config.model.loss: missing required key")
    if len(losses) != K:
        raise CliInputError(f"config.model.losses: need exactly K={K} entries")

    if "constraints_per_factor" in mcfg:
        if "constraints" in mcfg:
            raise CliInputError(
                "config.model: give either constraints or constraints_per_factor, not both"
            )
        rows = _list(mcfg["constraints_per_factor"], "config.model.constraints_per_factor")
        if len(rows) != K:
            raise CliInputError(f"config.model.constraints_per_factor: need exactly K={K} lists")
        constraints = tuple(
            tuple(
                _parse_constraint(d, f"config.model.constraints_per_factor[{k}][{j}]")
                for j, d in enumerate(_list(row, f"config.model.constraints_per_factor[{k}]"))
            )
            for k, row in enumerate(rows)
        )
    else:
        shared = tuple(
            _parse_constraint(d, f"config.model.constraints[{j}]")
            for j, d in enumerate(_list(mcfg.get("constraints", []), "config.model.constraints"))
        )
        constraints = tuple([shared] * K)

    p_regs = tuple(
        _parse_regularizer(d, f"config.model.p_regularizers[{j}]")
        for j, d in enumerate(_list(mcfg.get("p_regularizers", []), "config.model.p_regularizers"))
    )
    f_regs = tuple(
        _parse_regularizer(d, f"config.model.f_regularizers[{j}]")
        for j, d in enumerate(_list(mcfg.get("f_regularizers", []), "config.model.f_regularizers"))
    )

    controls = _parse_controls(cfg.get("controls", {}))

    dcfg = cfg.get("data", {})
    _require_keys(dcfg, {"ordered", "classes"}, set(), "config.data")
    data_opts = {"ordered": bool(dcfg.get("ordered", False)), "classes": dcfg.get("classes")}

    spec = model.ModelSpec(
        K=K,
        n=n,
        loss_per_factor=losses,
        constraints_per_factor=constraints,
        p_regularizers=p_regs,
        f_regularizers=f_regs,
        controls=controls,
    )
    return spec, cfg, data_opts


# ---------------------------------------------------------------------------
# CSV data files
# ---------------------------------------------------------------------------


def load_csv_dataset(path: str, ordered: bool, classes=None) -> model.Dataset:
    """Read a dataset written in the x{c} / x{r}_{c} / y / y{r} header scheme."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CliInputError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise CliInputError(f"{path}: {exc.strerror or exc}") from None

    xv, xm, yv, ys = {}, {}, {}, []
    for j, name in enumerate(header):
        if name == "y":
            ys.append(j)
        elif name.startswith("y") and name[1:].isdigit():
            yv[int(name[1:])] = j
        elif name.startswith("x") and "_" in name:
            r, _, c = name[1:].partition("_")
            if not (r.isdigit() and c.isdigit()):
                raise CliInputError(f"{path}: unrecognized column {name!r}")
            xm[(int(r), int(c))] = j
        elif name.startswith("x") and name[1:].isdigit():
            xv[int(name[1:])] = j
        else:
            raise CliInputError(f"{path}: unrecognized column {name!r}")

    try:
        table = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise CliInputError(f"{path}: non-numeric cell ({exc})") from None
    m = table.shape[0]
    if m == 0:
        raise CliInputError(f"{path}: no data rows")

    if xm:
        if xv:
            raise CliInputError(f"{path}: cannot mix x{{c}} and x{{r}}_{{c}} columns")
        p = max(r for r, _ in xm) + 1
        n = max(c for _, c in xm) + 1
        if classes is not None and classes != p:
            raise CliInputError(f"{path}: header implies {p} classes, config declares {classes}")
        if set(xm) != {(r, c) for r in range(p) for c in range(n)}:
            raise CliInputError(f"{path}: incomplete x{{r}}_{{c}} grid")
        feats = np.zeros((m, p, n))
        for (r, c), j in xm.items():
            feats[:, r, c] = table[:, j]
    else:
        if not xv:
            raise CliInputError(f"{path}: no feature columns")
        n = max(xv) + 1
        if set(xv) != set(range(n)):
            raise CliInputError(f"{path}: missing feature columns")
        feats = np.zeros((m, n))
        for c, j in xv.items():
            feats[:, c] = table[:, j]

    if ys and yv:
        raise CliInputError(f"{path}: cannot mix y and y{{r}} columns")
    if ys:
        obs = table[:, ys[0]]
    elif yv:
        pcols = max(yv) + 1
        if set(yv) != set(range(pcols)):
            raise CliInputError(f"{path}: missing observation columns")
        obs = np.zeros((m, pcols))
        for r, j in yv.items():
            obs[:, r] = table[:, j]
    else:
        raise CliInputError(f"{path}: no observation column")
    return model.Dataset(features=feats, observations=obs, m=m, ordered=ordered)


def _fmt(v) -> str:
    return repr(float(v))


def write_csv_dataset(path: str, data: model.Dataset):
    feats, obs = data.features, data.observations
    cols, header = [], []
    if feats.ndim == 3:
        m, p, n = feats.shape
        for r in range(p):
            for c in range(n):
                header.append(f"x{r}_{c}")
                cols.append(feats[:, r, c])
    else:
        for c in range(feats.shape[1]):
            header.append(f"x{c}")
            cols.append(feats[:, c])
    if obs.ndim == 2:
        for r in range(obs.shape[1]):
            header.append(f"y{r}")
            cols.append(obs[:, r])
    else:
        header.append("y")
        cols.append(obs)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(data.m):
            fh.write(",".join(_fmt(col[i]) for col in cols) + "\n")


def write_labels_csv(path: str, labels):
    with open(path, "w", newline="") as fh:
        fh.write("label\n")
        for v in labels:
            fh.write(f"{int(v)}\n")


def write_thetas_csv(path: str, thetas):
    thetas = np.asarray(thetas, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("factor," + ",".join(f"theta{c}" for c in range(thetas.shape[1])) + "\n")
        for k, row in enumerate(thetas, start=1):
            fh.write(f"{k}," + ",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _fit_result_payload(res: engine.FitResult) -> dict:
    return {
        "status": res.status,
        "iterations": res.iterations,
        "restart_index_of_best": res.restart_index_of_best,
        "seed_used": res.seed_used,
        "objective": res.objective_trace[-1][2] if res.objective_trace else None,
        "objective_trace": [[it, ap, af] for it, ap, af in res.objective_trace],
        "thetas": [np.asarray(t).tolist() for t in res.thetas],
        "labels": res.labels.tolist(),
        "Z": res.Z.tolist(),
    }


def cmd_fit(config_path, data_path, out_path, seed=None, restarts=None, eps=None,
            max_iter=None, jobs=None, quiet=False) -> int:
    t0 = time.perf_counter()
    try:
        with open(config_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"{config_path}: {exc.strerror or exc}") from None
    spec, cfg_echo, data_opts = parse_config(text)

    # precedence: flag > config > default
    updates = {}
    if seed is not None:
        updates["seed"] = seed
    if restarts is not None:
        updates["restarts"] = restarts
    if eps is not None:
        updates["eps"] = eps
    if max_iter is not None:
        updates["max_iter"] = max_iter
    if updates:
        spec = dataclasses.replace(spec, controls=dataclasses.replace(spec.controls, **updates))

    data = load_csv_dataset(data_path, data_opts["ordered"], data_opts["classes"])
    t_load = time.perf_counter()

    report = model.validate(spec, data)
    if not report.ok:
        for v in report.violations:
            print(f"error: {v.path}: {v.message}", file=sys.stderr)
        return 2
    t_validate = time.perf_counter()

    try:
        result = engine.fit(spec, data, jobs=jobs or 1)
    except engine.EngineFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    t_fit = time.perf_counter()

    record = {
        "tool": {"name": "dlfmkit", "version": __version__},
        "schema_version": SCHEMA_VERSION,
        "config": cfg_echo,
        "dataset": {"fingerprint": _fingerprint(data_path), "m": data.m},
        "result": _fit_result_payload(result),
        "timing": {
            "load_s": t_load - t0,
            "validate_s": t_validate - t_load,
            "fit_s": t_fit - t_validate,
            "total_s": time.perf_counter() - t0,
        },
    }
    with open(out_path, "w") as fh:
        fh.write(canonical_json(record))
    if not quiet:
        final = record["result"]["objective"]
        print(f"fit: {result.status} after {result.iterations} iterations, objective {final:.6g}")
        print(f"fit: wrote {out_path}")
    return 0


def cmd_synth(name, seed, out_path, quiet=False) -> int:
    try:
        cfg = experiments.experiment_config(name, seed)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    data, labels, thetas = experiments.generate(cfg)
    write_csv_dataset(out_path, data)
    written = [out_path]
    stem, _ = os.path.splitext(out_path)
    if labels is not None:
        write_labels_csv(stem + ".truth.csv", labels)
        written.append(stem + ".truth.csv")
    if thetas is not None:
        write_thetas_csv(stem + ".thetas.csv", thetas)
        written.append(stem + ".thetas.csv")
    if not quiet:
        for p in written:
            print(f"synth: wrote {p}")
    return 0


def _write_trace_csv(path, runs: dict):
    # columns: t, truth, then one prediction column per run
    names = list(runs)
    m = len(runs[names[0]]["truth"])
    with open(path, "w", newline="") as fh:
        fh.write("t,truth," + ",".join(f"pred_{n}" for n in names) + "\n")
        for t in range(m):
            row = [str(t + 1), str(int(runs[names[0]]["truth"][t]))]
            row += [str(int(runs[n]["pred"][t])) for n in names]
            fh.write(",".join(row) + "\n")


def cmd_repro(name, seed, out_dir, jobs=1, quiet=False) -> int:
    if name not in experiments.EXPERIMENT_NAMES:
        raise CliInputError(f"unknown experiment {name!r}")
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    metrics: dict = {"experiment": name, "seed": seed, "tool": {"name": "dlfmkit", "version": __version__}}

    if name == experiments.CONSTRAINED_KMEANS:
        res = experiments.run_constrained_kmeans(seed, jobs=jobs)
        pts = res["data"].features
        lab = res["constrained"].labels
        with open(os.path.join(out_dir, "points.csv"), "w") as fh:
            fh.write("x0,x1,label\n")
            for i in range(pts.shape[0]):
                fh.write(f"{_fmt(pts[i, 0])},{_fmt(pts[i, 1])},{int(lab[i])}\n")
        write_thetas_csv(os.path.join(out_dir, "centers_constrained.csv"), np.array(res["constrained"].thetas))
        write_thetas_csv(os.path.join(out_dir, "centers_unconstrained.csv"), np.array(res["unconstrained"].thetas))
        metrics.update(
            {
                "objective_constrained": res["constrained"].objective_trace[-1][2],
                "objective_unconstrained": res["unconstrained"].objective_trace[-1][2],
                "margins_constrained": res["margins_constrained"],
                "margins_unconstrained": res["margins_unconstrained"],
                "iterations": res["constrained"].iterations,
                "status": res["constrained"].status,
            }
        )
    elif name == experiments.MIXTURE_LINREG:
        res = experiments.run_mixture_linreg(seed, jobs=jobs)
        aligned = experiments.apply_permutation(res["fit"].labels, res["perm"])
        _write_trace_csv(
            os.path.join(out_dir, "labels.csv"),
            {"fit": {"truth": res["truth"], "pred": aligned}},
        )
        write_thetas_csv(os.path.join(out_dir, "thetas_recovered.csv"), np.array(res["fit"].thetas))
        write_thetas_csv(os.path.join(out_dir, "thetas_true.csv"), experiments.MIXTURE_THETAS)
        metrics.update(
            {
                "accuracy": res["accuracy"],
                "rmse_per_factor": res["rmse_per_factor"],
                "objective": res["fit"].objective_trace[-1][2],
                "status": res["fit"].status,
                "iterations": res["fit"].iterations,
            }
        )
    elif name == experiments.FORGETTING_Q:
        res = experiments.run_forgetting_q(seed, jobs=jobs)
        runs = {}
        rows = []
        for lam, run in res["runs"].items():
            aligned = experiments.apply_permutation(run["fit"].labels, run["perm"])
            tag = f"lam{lam:g}"
            runs[tag] = {"truth": res["truth"], "pred": aligned}
            rows.append(
                {
                    "lam": lam,
                    "accuracy": run["accuracy"],
                    "objective": run["fit"].objective_trace[-1][2],
                    "status": run["fit"].status,
                    "iterations": run["fit"].iterations,
                }
            )
        _write_trace_csv(os.path.join(out_dir, "labels.csv"), runs)
        best = res["runs"][max(res["runs"])]["fit"]
        write_thetas_csv(os.path.join(out_dir, "thetas_recovered.csv"), np.array(best.thetas))
        write_thetas_csv(os.path.join(out_dir, "thetas_true.csv"), experiments.FORGETTING_THETAS)
        metrics["runs"] = rows
    else:  # io_hmm
        res = experiments.run_io_hmm(seed, jobs=jobs)
        aligned = experiments.apply_permutation(res["fit"].labels, res["perm"])
        _write_trace_csv(
            os.path.join(out_dir, "labels.csv"),
            {"fit": {"truth": res["truth"], "pred": aligned}},
        )
        write_thetas_csv(os.path.join(out_dir, "thetas_recovered.csv"), np.array(res["fit"].thetas))
        with open(os.path.join(out_dir, "transition.csv"), "w") as fh:
            fh.write(",".join(f"to{j + 1}" for j in range(3)) + "\n")
            for row in res["transition"]:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        metrics.update(
            {
                "accuracy": res["accuracy"],
                "transition": res["transition"],
                "max_deviation": res["max_deviation"],
                "objective": res["fit"].objective_trace[-1][2],
                "status": res["fit"].status,
                "iterations": res["fit"].iterations,
            }
        )

    metrics["wall_s"] = time.perf_counter() - t0
    out = os.path.join(out_dir, "metrics.json")
    with open(out, "w") as fh:
        fh.write(canonical_json(metrics))
    if not quiet:
        print(f"repro: wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dlfmkit", description=__doc__)
    ap.add_argument("--version", action="version", version=f"dlfmkit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit a configured model to a CSV dataset")
    fit_p.add_argument("--config", required=True, help="JSON model/controls config")
    fit_p.add_argument("--data", required=True, help="dataset CSV")
    fit_p.add_argument("--out", required=True, help="result JSON path")
    fit_p.add_argument("--seed", type=int, help="override the config seed")
    fit_p.add_argument("--restarts", type=int, help="override the config restart count")
    fit_p.add_argument("--eps", type=float, help="override the termination tolerance")
    fit_p.add_argument("--max-iter", type=int, help="override the iteration cap")
    fit_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for restarts (default: 1, no process pool)")
    fit_p.add_argument("--quiet", action="store_true", help="suppress progress output")

    synth_p = sub.add_parser("synth", help="write a synthetic benchmark dataset")
    synth_p.add_argument("name", choices=experiments.EXPERIMENT_NAMES)
    synth_p.add_argument("--seed", type=int, default=0)
    synth_p.add_argument("--out", required=True, help="dataset CSV path")
    synth_p.add_argument("--quiet", action="store_true")

    repro_p = sub.add_parser("repro", help="reproduce a canned study end to end")
    repro_p.add_argument("name", choices=experiments.EXPERIMENT_NAMES)
    repro_p.add_argument("--seed", type=int, default=0)
    repro_p.add_argument("--out-dir", required=True)
    repro_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for restarts (default: 1, no process pool)")
    repro_p.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(
                args.config,
                args.data,
                args.out,
                seed=args.seed,
                restarts=args.restarts,
                eps=args.eps,
                max_iter=args.max_iter,
                jobs=args.jobs,
                quiet=args.quiet,
            )
        if args.command == "synth":
            return cmd_synth(args.name, args.seed, args.out, quiet=args.quiet)
        return cmd_repro(args.name, args.seed, args.out_dir, jobs=args.jobs, quiet=args.quiet)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except engine.EngineFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
