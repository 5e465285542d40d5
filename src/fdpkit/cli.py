"""Command-line interface.

Subcommands: ``threshold`` (rejection rules on a p-value file),
``envelope`` (FDP confidence envelopes and the thresholds they imply),
``estimate`` (mixing-weight estimators), ``simulate`` (named Monte Carlo
validation targets), and ``reproduce-example`` (the two worked examples).

``FDP_SEED`` overrides ``--seed`` where a subcommand reads it, and JSON
output writes a non-finite number as null.  Errors, a bad command line among
them, exit with status 1 and a JSON record on stderr; ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import EXAMPLE1_PVALUES, EXAMPLE2_SCENARIO
from .envelopes import (
    asymptotic_envelope,
    confidence_thresholds,
    exact_confidence_set,
    exact_envelope,
)
from .estimation import _SPAN, astar_lower, ecdf, kernel_a_consistent, storey_a0
from .simulation import generate_sample, run_validation
from .thresholds import (
    ThresholdResult,
    bayes_classifier_threshold,
    bh_threshold,
    plugin_threshold,
    simple_thresholds,
)

__all__ = ["RunSpec", "ingest", "run", "main", "read_envelope_csv"]


@dataclass
class RunSpec:
    """A CLI invocation; ``run`` executes it.  Its field defaults are the CLI's
    defaults, but a ``method`` of None runs its subcommand's first ``_METHODS``
    entry, and ``_run_example`` reads example 2's None ``ceiling``/``t_min`` as 0.05/1e-4."""

    command: str
    input: str | None = None
    format: str = "lines"
    alpha: float = 0.05
    method: str | None = None
    ceiling: float | None = None
    t0: float = 0.5
    t_min: float | None = None
    variant: str = "plain"
    seed: int = 0
    reps: int | None = None
    output: str | None = None
    as_json: bool = False
    t: float | None = None
    r: int | None = None
    bandwidth: float | None = None
    min_rate: bool = False
    no_floor_check: bool = False
    target: str | None = None
    config: str | None = None
    example: int | None = None


def ingest(path: str, format: str = "lines") -> np.ndarray:
    """Read p-values from a file: one float per nonblank line, or the first
    column of a CSV whose header row is always skipped.  A leading UTF-8
    byte-order mark, as spreadsheet exports write, is dropped.  A -0 is read
    as 0, so no output says -0; library calls take the values as given."""
    if format not in ("lines", "csv"):
        raise ValueError(f"unknown input format: {format!r}")
    csv = {"delimiter": ",", "usecols": 0, "skiprows": 1} if format == "csv" else {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty file only warns
            p = np.loadtxt(path, dtype=float, comments=None, ndmin=2, encoding="utf-8-sig", **csv)
    except (OSError, ValueError, Warning):
        p = np.empty((0, 0))
    # ndmin=2 keeps a one-line file "0.1 0.2" as one row of two columns
    p = p[:, 0] if p.shape[0] > 0 and p.shape[1] == 1 else _ingest_lines(path, format)
    p += 0.0   # -0.0 + 0.0 is +0.0, and x + 0.0 is x for every other double
    return p


def _ingest_lines(path: str, format: str) -> np.ndarray:
    """The line-by-line reader behind ``ingest``; it runs when ``np.loadtxt``
    does not return one column, and words every parse error."""
    out = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if format == "csv":
                if lineno == 1:
                    continue
                field = line.split(",")[0].strip()
            else:
                field = line
            try:
                out.append(float(field))
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse {field!r}") from None
    if not out:
        raise ValueError(f"no p-values found in {path}")
    return np.asarray(out, dtype=float)


def _threshold_record(res: ThresholdResult) -> dict:
    rec = {
        "method": res.method,
        "t": res.t,
        "rejected": res.rejected,
        "z": res.z,
        "alpha": res.alpha,
        "inclusive": res.inclusive,
    }
    rec.update({f"diag_{k}": v for k, v in sorted(res.diagnostics.items())})
    return rec


def _write_threshold_csv(path: str, res: ThresholdResult) -> None:
    with open(path, "w") as fh:
        fh.write("method,t,rejected,z,alpha\n")
        cells = [
            res.method,
            repr(float(res.t)),
            "" if res.rejected is None else str(res.rejected),
            "" if res.z is None else repr(float(res.z)),
            "" if res.alpha is None else repr(float(res.alpha)),
        ]
        fh.write(",".join(cells) + "\n")


def _envelope_grid(env) -> np.ndarray:
    knots = env.ghat.base.knots
    if env.method == "exact":
        return knots
    # the knots increase strictly, so t_min, those above it and a last 1 are sorted and distinct
    above = knots[np.searchsorted(knots, env.t_min, "right"):]
    return np.r_[env.t_min, above] if knots[-1] == 1.0 else np.r_[env.t_min, above, 1.0]


def _write_envelope_csv(path: str, env) -> None:
    grid = _envelope_grid(env)
    curves = [dataclasses.replace(env.gamma_bar, kind=kind) for kind in ("gamma", "v", "j")]
    with open(path, "w") as fh:
        fh.write("t,gamma_bar,v,count_bound\n")
        for s in range(0, grid.size, _SPAN):     # a span of rows at a time, so no column is held whole
            ts = grid[s:s + _SPAN]
            # Ghat read once for the three columns; Python floats, whose repr re-ingests exactly
            cols = [curve.values(ts, g).tolist() for g in [env.ghat(ts)] for curve in curves]
            fh.writelines(f"{a!r},{b!r},{c!r},{d!r}\n" for a, b, c, d in zip(ts.tolist(), *cols))
            del cols     # before the next span's are built


def read_envelope_csv(path: str) -> dict:
    """Read back a CSV written by the envelope subcommand as arrays."""
    cols = {"t": [], "gamma_bar": [], "v": [], "count_bound": []}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != list(cols):
            raise ValueError(f"unexpected envelope CSV header: {header}")
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            cells = raw.strip().split(",")
            if len(cells) != len(cols):
                raise ValueError(f"envelope CSV line {lineno} holds {len(cells)} cells, not {len(cols)}")
            for name, cell in zip(cols, cells):
                cols[name].append(float(cell))
    return {k: np.asarray(vs) for k, vs in cols.items()}


# Each subcommand's --method table, its default first: a method's name and
# the library call it makes on the ingested p-values.  The lambdas look each
# function up when called, so a rebinding of the module's names reaches them.
_METHODS = {
    "threshold": {
        "bh": lambda p, s: bh_threshold(p, s.alpha),
        "uncorrected": lambda p, s: simple_thresholds(p, s.alpha, "uncorrected"),
        "bonferroni": lambda p, s: simple_thresholds(p, s.alpha, "bonferroni"),
        "fixed": lambda p, s: simple_thresholds(p, s.alpha, "fixed", t=s.t),
        "first-r": lambda p, s: simple_thresholds(p, s.alpha, "first-r", r=s.r),
        "plugin": lambda p, s: plugin_threshold(p, storey_a0(p, s.t0), s.alpha, s.variant),
        "bayes": lambda p, s: bayes_classifier_threshold(p, s.bandwidth),
    },
    "estimate": {
        "storey": lambda p, s: storey_a0(p, s.t0),
        "astar": lambda p, s: astar_lower(ecdf(p, s.variant), s.alpha),
        "kernel": lambda p, s: kernel_a_consistent(p, s.bandwidth),
    },
    "envelope": {
        "exact": lambda p, s: exact_envelope(exact_confidence_set(p, s.alpha), p),
        "asymptotic": lambda p, s: asymptotic_envelope(p, t0=s.t0, alpha=s.alpha, t_min=s.t_min,
                                                       enforce_floor=not s.no_floor_check),
    },
}


def _run_method(spec: RunSpec):
    """Ingest the input, then run ``spec.method`` of the subcommand's table
    on it (the table's first method when None); a bad file reports first."""
    p = ingest(spec.input, spec.format)
    methods = _METHODS[spec.command]
    method = spec.method or next(iter(methods))
    if method not in methods:
        raise ValueError(f"unknown {spec.command} method: {method!r}")
    return methods[method](p, spec)


def _run_threshold(spec: RunSpec) -> dict:
    res = _run_method(spec)
    if spec.output:
        _write_threshold_csv(spec.output, res)
    return _threshold_record(res)


def _run_envelope(spec: RunSpec) -> dict:
    if spec.min_rate and spec.ceiling is not None:
        raise ValueError("choose one of --min-rate and --ceiling")
    env = _run_method(spec)
    # may refuse c, so before any file
    thr = confidence_thresholds(env, spec.ceiling) if spec.min_rate or spec.ceiling is not None else None
    if spec.output:
        _write_envelope_csv(spec.output, env)
    if thr is not None:
        rec = _threshold_record(thr)
        rec.update({"T": thr.t, "Z": thr.z, "envelope": env.method})
        return rec
    return {
        "envelope": env.method,
        "level": env.level,
        "t_min": env.t_min,
        "points": int(_envelope_grid(env).size),
        **{f"meta_{k}": v for k, v in sorted(env.meta.items()) if np.isscalar(v)},
    }


def _run_estimate(spec: RunSpec) -> dict:
    est = _run_method(spec)
    rec = {"method": est.method, "value": est.value}
    rec.update({k: getattr(est, k) for k in ("t0", "bandwidth", "alpha") if getattr(est, k) is not None})
    rec.update({f"diag_{k}": v for k, v in sorted(est.diagnostics.items())})
    return rec


def _run_simulate(spec: RunSpec) -> dict:
    if not spec.target:
        raise ValueError("simulate needs --target")
    cfg = {}
    if spec.config:
        with open(spec.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    cfg.setdefault("seed", spec.seed)
    if spec.reps is not None:
        cfg.setdefault("reps", spec.reps)
    report = run_validation(cfg, spec.target)
    if spec.output:
        with open(spec.output, "w") as fh:
            fh.write(_json(report) + "\n")
    return report


def _run_example(spec: RunSpec) -> dict:
    if spec.example == 1:
        p = np.asarray(EXAMPLE1_PVALUES)
        un, bf, bh = (_METHODS["threshold"][k](p, spec) for k in ("uncorrected", "bonferroni", "bh"))
        mr = confidence_thresholds(_METHODS["envelope"]["exact"](p, spec), None)
        return {
            "alpha": spec.alpha,
            "uncorrected_t": un.t,
            "uncorrected_rejected": un.rejected,
            "bonferroni_t": bf.t,
            "bonferroni_rejected": bf.rejected,
            "bh_t": bh.t,
            "bh_rejected": bh.rejected,
            "min_rate_T": mr.t,
            "min_rate_Z": mr.z,
            "min_rate_rejected": mr.rejected,
            "min_rate_inclusive": mr.inclusive,
        }
    if spec.example == 2:
        scen = dataclasses.replace(EXAMPLE2_SCENARIO, seed=spec.seed)
        p = generate_sample(scen, 0).pvalues
        c = spec.ceiling if spec.ceiling is not None else 0.05
        t_min = spec.t_min if spec.t_min is not None else 1e-4
        env_exact = _METHODS["envelope"]["exact"](p, spec)
        thr_exact = confidence_thresholds(env_exact, c)
        mr = confidence_thresholds(env_exact, None)
        env_asym = asymptotic_envelope(p, t0=spec.t0, alpha=spec.alpha, t_min=t_min, enforce_floor=False)
        thr_asym = confidence_thresholds(env_asym, c)
        return {
            "alpha": spec.alpha,
            "ceiling": c,
            "seed": scen.seed,
            "exact_ceiling_t": thr_exact.t,
            "asymptotic_ceiling_t": thr_asym.t,
            "min_rate_T": mr.t,
            "min_rate_Z": mr.z,
        }
    raise ValueError("example must be 1 or 2")


def _json(record: dict) -> str:
    """Strict JSON of a result record: the parse maps Infinity and NaN to null."""
    return json.dumps(json.loads(json.dumps(record), parse_constant=lambda _: None), sort_keys=True, allow_nan=False)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


# Each option once: its flag and how argparse reads it.  None has a default
# here: an option left off the command line is left out of the RunSpec.  The
# defaults are RunSpec's fields, the first method of each _METHODS table, and
# example 2's --ceiling 0.05 and --t-min 1e-4, which _run_example sets.
_OPTIONS = {
    "--input": {"required": True, "help": "p-value file"},
    "--format": {"choices": ["lines", "csv"]},
    "--alpha": {"type": float},
    "--seed": {"type": int},
    "--output": {"help": "write result file (CSV/JSON by command)"},
    "--json": {"dest": "as_json", "action": "store_true", "help": "print JSON"},
    "--t": {"type": float, "help": "threshold for --method fixed"},
    "--r": {"type": int, "help": "count for --method first-r"},
    "--t0": {"type": float, "help": "cut point of the tail-count estimate of the mixing weight"},
    "--variant": {"choices": ["plain", "floor", "lcm"]},
    "--bandwidth": {"type": float},
    "--ceiling": {"type": float, "help": "largest t with bound at or below this rate"},
    "--min-rate": {"action": "store_true"},
    "--t-min": {"type": float},
    "--no-floor-check": {"action": "store_true"},
    "--reps": {"type": int, "help": "Monte Carlo replicates of the validation target"},
    "--target": {"required": True},
    "--config": {"help": "JSON config file"},
    "example": {"type": int, "choices": [1, 2]},
}

# Each subcommand: its runner, its help and the options it reads; the three
# with a _METHODS table also take --method.
_COMMANDS = {
    "threshold": (_run_threshold, "rejection thresholds",
                  "--input --format --alpha --output --json --t --r --t0 --variant --bandwidth"),
    "envelope": (_run_envelope, "FDP confidence envelopes",
                 "--input --format --alpha --output --json --ceiling --min-rate --t0 --t-min "
                 "--no-floor-check"),
    "estimate": (_run_estimate, "mixing-weight estimators",
                 "--input --format --alpha --json --t0 --variant --bandwidth"),
    "simulate": (_run_simulate, "named validation targets", "--seed --output --json --target --config --reps"),
    "reproduce-example": (_run_example, "worked examples", "example --alpha --seed --json --ceiling --t0 --t-min"),
}


def run(spec: RunSpec) -> dict:
    """Execute a resolved invocation and return its result record."""
    if spec.command not in _COMMANDS:
        raise ValueError(f"unknown command: {spec.command!r}")
    return _COMMANDS[spec.command][0](spec)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, so that it takes the one
    error path of ``main``."""

    def error(self, message):
        raise ValueError(message)


def _parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(prog="fdpkit", description="False-discovery control toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        if name in _METHODS:
            sp.add_argument("--method", choices=list(_METHODS[name]))
        for flag in flags.split():
            sp.add_argument(flag, **_OPTIONS[flag])
    return ap


def main(argv=None) -> int:
    try:
        args = vars(_parser().parse_args(argv))
        if "FDP_SEED" in os.environ and "--seed" in _COMMANDS[args["command"]][2].split():
            try:
                args["seed"] = int(os.environ["FDP_SEED"])
            except ValueError:
                raise ValueError("FDP_SEED must be an integer") from None
        spec = RunSpec(**args)
        result = run(spec)
    except Exception as exc:  # deliberate: CLI boundary
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1
    if spec.as_json or spec.command == "simulate":
        print(_json(result))
    else:
        for k, v in result.items():
            if v is not None:
                print(f"{k} {_fmt(v)}")
    return 1 if spec.command == "simulate" and not result["passed"] else 0  # a failed check, after its report


if __name__ == "__main__":
    raise SystemExit(main())
