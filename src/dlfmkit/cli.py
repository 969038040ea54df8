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
import math
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


def _require_finite(value, path: str):
    """Reject the first NaN, Infinity or -Infinity in a parsed JSON value.

    json.loads accepts these constants (and reads 1e999 as Infinity), but a
    run record echoes its config through canonical_json, which cannot hold them.
    """
    if isinstance(value, float) and not math.isfinite(value):
        name = "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
        raise CliInputError(f"{path}: {name} is not a finite number, and the run record is strict JSON")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_finite(item, f"{path}[{i}]")


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


def _each(value, path: str, parse) -> tuple:
    """parse(item, item path) of each item of a JSON list."""
    if not isinstance(value, list):
        raise CliInputError(f"{path}: must be a list")
    return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(value))


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
        losses = _each(mcfg["losses"], "config.model.losses", _parse_loss)
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
        rows = mcfg["constraints_per_factor"]
        # the count is checked before any atom is parsed
        if isinstance(rows, list) and len(rows) != K:
            raise CliInputError(f"config.model.constraints_per_factor: need exactly K={K} lists")
        constraints = _each(
            rows,
            "config.model.constraints_per_factor",
            lambda row, path: _each(row, path, _parse_constraint),
        )
    else:
        shared = _each(mcfg.get("constraints", []), "config.model.constraints", _parse_constraint)
        constraints = tuple([shared] * K)

    p_regs = _each(mcfg.get("p_regularizers", []), "config.model.p_regularizers", _parse_regularizer)
    f_regs = _each(mcfg.get("f_regularizers", []), "config.model.f_regularizers", _parse_regularizer)

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


def _write_csv(path: str, header, rows):
    """Write a header line and one line per row of formatted cells."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_csv_dataset(path: str, data: model.Dataset):
    """Write a dataset in the header scheme load_csv_dataset reads."""
    feats, obs = data.features, data.observations
    if feats.ndim == 3:
        header = [f"x{r}_{c}" for r in range(feats.shape[1]) for c in range(feats.shape[2])]
    else:
        header = [f"x{c}" for c in range(feats.shape[1])]
    header += [f"y{r}" for r in range(obs.shape[1])] if obs.ndim == 2 else ["y"]
    table = np.column_stack([feats.reshape(data.m, -1), obs.reshape(data.m, -1)])
    _write_csv(path, header, ([_fmt(v) for v in row] for row in table))


def write_thetas_csv(path: str, thetas):
    thetas = np.asarray(thetas, dtype=float)
    header = ["factor", *(f"theta{c}" for c in range(thetas.shape[1]))]
    _write_csv(path, header, ([str(k), *map(_fmt, row)] for k, row in enumerate(thetas, start=1)))


def _write_labels_csv(path: str, truth, preds: dict):
    """Columns t, truth, then one pred_{name} column per fit."""
    header = ["t", "truth", *(f"pred_{name}" for name in preds)]
    rows = ([str(t + 1), str(int(truth[t])), *(str(int(p[t])) for p in preds.values())]
            for t in range(len(truth)))
    _write_csv(path, header, rows)


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


def _require_jobs(jobs: int):
    if jobs < 1:
        raise CliInputError(f"--jobs: must be >= 1, got {jobs}")


def cmd_fit(config_path, data_path, out_path, seed=None, restarts=None, eps=None,
            max_iter=None, jobs=1, quiet=False) -> int:
    _require_jobs(jobs)
    t0 = time.perf_counter()
    try:
        with open(config_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"{config_path}: {exc.strerror or exc}") from None
    spec, cfg_echo, data_opts = parse_config(text)

    # precedence: flag > config > default
    flags = {"seed": seed, "restarts": restarts, "eps": eps, "max_iter": max_iter}
    updates = {key: value for key, value in flags.items() if value is not None}
    if updates:
        spec = dataclasses.replace(spec, controls=dataclasses.replace(spec.controls, **updates))

    data = load_csv_dataset(data_path, data_opts["ordered"], data_opts["classes"])
    t_load = time.perf_counter()

    report = model.validate(spec, data)
    if not report.ok:
        for v in report.violations:
            print(f"error: {v.path}: {v.message}", file=sys.stderr)
        return 2
    # after validate, which names the spec field of a NaN or an empty box
    _require_finite(cfg_echo, "config")
    t_validate = time.perf_counter()

    result = engine.fit(spec, data, jobs=jobs)  # EngineFailure exits 3 in main
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
    payload = canonical_json(record)
    with open(out_path, "w") as fh:
        fh.write(payload)
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
        written.append(stem + ".truth.csv")
        _write_csv(written[-1], ["label"], ([str(int(v))] for v in labels))
    if thetas is not None:
        written.append(stem + ".thetas.csv")
        write_thetas_csv(written[-1], thetas)
    if not quiet:
        for p in written:
            print(f"synth: wrote {p}")
    return 0


def _fit_summary(fit: engine.FitResult) -> dict:
    return {"objective": fit.objective_trace[-1][2], "status": fit.status, "iterations": fit.iterations}


def cmd_repro(name, seed, out_dir, jobs=1, quiet=False) -> int:
    if name not in experiments.EXPERIMENT_NAMES:
        raise CliInputError(f"unknown experiment {name!r}")
    _require_jobs(jobs)
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    metrics: dict = {"experiment": name, "seed": seed, "tool": {"name": "dlfmkit", "version": __version__}}

    def out(filename):
        return os.path.join(out_dir, filename)

    if name == experiments.CONSTRAINED_KMEANS:
        res = experiments.run_constrained_kmeans(seed, jobs=jobs)
        con, unc = res["constrained"], res["unconstrained"]
        points = zip(res["data"].features, con.labels)
        _write_csv(out("points.csv"), ["x0", "x1", "label"],
                   ([_fmt(x[0]), _fmt(x[1]), str(int(label))] for x, label in points))
        write_thetas_csv(out("centers_constrained.csv"), con.thetas)
        write_thetas_csv(out("centers_unconstrained.csv"), unc.thetas)
        metrics.update(
            objective_constrained=con.objective_trace[-1][2],
            objective_unconstrained=unc.objective_trace[-1][2],
            margins_constrained=res["margins_constrained"],
            margins_unconstrained=res["margins_unconstrained"],
            iterations=con.iterations,
            status=con.status,
        )
    elif name == experiments.FORGETTING_Q:
        res = experiments.run_forgetting_q(seed, jobs=jobs)
        runs = res["runs"]
        preds = {f"lam{lam:g}": experiments.apply_permutation(run["fit"].labels, run["perm"])
                 for lam, run in runs.items()}
        _write_labels_csv(out("labels.csv"), res["truth"], preds)
        write_thetas_csv(out("thetas_recovered.csv"), runs[max(runs)]["fit"].thetas)
        write_thetas_csv(out("thetas_true.csv"), experiments.FORGETTING_THETAS)
        metrics["runs"] = [{"lam": lam, "accuracy": run["accuracy"], **_fit_summary(run["fit"])}
                           for lam, run in runs.items()]
    else:  # one fit, scored against its truth: mixture_linreg or io_hmm
        mixture = name == experiments.MIXTURE_LINREG
        res = (experiments.run_mixture_linreg if mixture else experiments.run_io_hmm)(seed, jobs=jobs)
        fit = res["fit"]
        aligned = experiments.apply_permutation(fit.labels, res["perm"])
        _write_labels_csv(out("labels.csv"), res["truth"], {"fit": aligned})
        write_thetas_csv(out("thetas_recovered.csv"), fit.thetas)
        metrics.update(accuracy=res["accuracy"], **_fit_summary(fit))
        if mixture:
            write_thetas_csv(out("thetas_true.csv"), experiments.MIXTURE_THETAS)
            metrics["rmse_per_factor"] = res["rmse_per_factor"]
        else:
            transition = res["transition"]
            _write_csv(out("transition.csv"), [f"to{j + 1}" for j in range(len(transition))],
                       ([_fmt(v) for v in row] for row in transition))
            metrics.update(transition=transition, max_deviation=res["max_deviation"])

    metrics["wall_s"] = time.perf_counter() - t0
    path = out("metrics.json")
    with open(path, "w") as fh:
        fh.write(canonical_json(metrics))
    if not quiet:
        print(f"repro: wrote {path}")
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
                       help="worker processes for restarts, at most one per CPU (default: 1, no process pool)")
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
                         help="worker processes for restarts, at most one per CPU (default: 1, no process pool)")
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
