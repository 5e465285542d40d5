"""fdpkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): cli, validate.  The run builds its inputs
from the seed, sets up several times and keeps the median as setup_s, then
repeats passes over the workload's operations while another pass fits in S
seconds (at least one).  End-to-end metrics are the medians over those
passes.  Times are also taken to the reference speed: each operation and
set-up is rescaled by a fixed probe timed right before and after it
(speed.py), which cancels most of the host's drifting CPU speed.  With
``--trace 1`` one untraced pass is followed by one traced pass, where every
operation runs again in a fresh interpreter with the layers wrapped (see
child.py); the run then reports the per-layer split instead.  Every
operation's output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, whose names
and units come from BENCHMARK.json.  A full record with provenance is
appended to ``.perfbench/results.jsonl``; compare.py reads those records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import proc
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def layer_split(files: list[Path]) -> dict:
    """Self time (span minus its children), summed span time and call count
    per layer, plus the counters and memory peaks the child recorded."""
    self_s, total_s, calls, counts = Counter(), Counter(), Counter(), Counter()
    peak_mb: dict[str, float] = {}
    modules = 0
    for path in files:
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            dur = z["end"] - z["start"]
            parent, layer = z["parent"], z["layer"]
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        for lid, name in enumerate(meta["names"]):
            sel = layer == lid
            self_s[name] += float(own[sel].sum())
            total_s[name] += float(dur[sel].sum())
            calls[name] += int(sel.sum())
        counts.update(meta["counts"])
        for name, mb in meta["peak_mb"].items():
            peak_mb[name] = max(peak_mb.get(name, 0.0), mb)
        modules = max(modules, meta["modules_loaded"])
    return {"self_s": dict(self_s), "total_s": dict(total_s), "calls": dict(calls),
            "counts": dict(counts), "peak_mb": peak_mb, "modules_loaded": modules}


def per_layer_values(split: dict) -> dict:
    values = {f"{name}_s": s for name, s in split["self_s"].items()}
    values.update(split["counts"])
    values["cli.modules_loaded"] = split["modules_loaded"]
    values["envelopes.exact_envelope_peak_mb"] = split["peak_mb"].get("envelopes.exact_envelope", 0.0)
    for layer in ("simulation.generate_sample", "families.ppf", "stepfun.eval"):
        values[f"{layer}_calls"] = split["calls"].get(layer, 0)
    return values


def end_to_end_values(passes: list[workloads.Pass], setup: list[tuple[float, float]],
                      probes: list[float]) -> dict:
    """Medians over passes.  wall_ref_s sums the latencies of every
    operation of a pass at the reference speed, threshold_ref_s,
    estimate_ref_s and envelope_ref_s those of one kind; setup_s is the
    median set-up at the reference speed.  wall_s and setup_wall_s are
    the same as measured, probe_s the median probe."""
    med = statistics.median
    values = {"wall_ref_s": med(p.kind_s(scaled=True) for p in passes)}
    for kind in ("threshold", "estimate", "envelope"):
        values[f"{kind}_ref_s"] = med(p.kind_s(kind, scaled=True) for p in passes)
    values["peak_rss_mb"] = med(p.peak_rss_mb for p in passes)
    values["setup_s"] = med(s for _, s in setup)
    values["wall_s"] = med(p.kind_s() for p in passes)
    values["setup_wall_s"] = med(s for s, _ in setup)
    values["probe_s"] = med(probes)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fdpkit" / "__init__.py").is_file():
        print(f"perfbench: no fdpkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_LIMIT_S
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = proc.Launcher()
    try:
        wl = workloads.WORKLOADS[args.workload](launcher, ROOT, work, args.seed, deadline)
        setup = [wl.setup() for _ in range(SETUP_REPEATS)]
        begin = time.perf_counter()
        passes = [wl.run_pass(traced=False)]
        elapsed = time.perf_counter() - begin
        # another pass only while it is expected to end within --seconds
        while not args.trace and elapsed * (len(passes) + 1) / len(passes) <= args.seconds:
            passes.append(wl.run_pass(traced=False))
            elapsed = time.perf_counter() - begin
        traced = wl.run_pass(traced=True) if args.trace else None
        split = layer_split(traced.spans) if traced else None
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        for path in work.iterdir():
            if path.suffix != ".npz":
                path.unlink()

    labelled = [(f"pass {i}", p) for i, p in enumerate(passes)]
    if traced:
        labelled.append(("traced", traced))
        plain = {op.name: op.digest for op in passes[0].ops}
    failures = []
    for label, p in labelled:
        for op in p.ops:
            problems = list(op.problems)
            if p is traced and op.digest != plain[op.name]:
                problems.append("output differs from the untraced run")
            if problems:
                failures.append(f"{label} {op.name}: {'; '.join(problems)}")
    failed = len(failures)
    attempted = SETUP_REPEATS + sum(len(p.ops) for _, p in labelled)

    e2e = end_to_end_values(passes, setup, wl.probes)
    e2e["error_rate"] = failed / attempted
    values = e2e
    if traced:
        values = per_layer_values(split)
        values["trace_overhead_s"] = traced.kind_s() - passes[0].kind_s()
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec[kind]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "finished_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "inputs": wl.inputs,
        "setup_s": setup,
        "probe_s": wl.probes,
        "passes": [{"peak_rss_mb": p.peak_rss_mb, "ops": [o.record() for o in p.ops]}
                   for p in passes],
        "end_to_end": e2e,
        "failures": failures,
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if traced:
        record["trace_overhead_s"] = values["trace_overhead_s"]
        record["traced_ops"] = [o.record() for o in traced.ops]
        record["layers"] = split
    with open(ROOT / ".perfbench" / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  commit {record['commit']}  "
          f"python {record['python']}  numpy {record['numpy']}  scipy {record['scipy']}  "
          f"nproc {record['nproc']}")
    for inp in wl.inputs:
        print(f"input {inp['file']}  m={inp['m']}  {json.dumps(inp['scenario'])}  "
              f"sha256 {inp['sha256'][:16]}")
    for i, p in enumerate(passes):
        for op in p.ops:
            rss = "" if op.peak_rss_mb is None else f"{op.peak_rss_mb:8.1f} MB"
            print(f"pass {i}  {op.name:38s} {op.seconds:8.3f} s {op.scaled:8.3f} s at ref "
                  f"{rss:>11s}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["error_rate"] = ""
    for name, value in e2e.items():
        print(f"{name:16s} {value:.6g} {units.get(name, 's')}")
    print(f"failed {failed} of {attempted} operations")
    for f in failures:
        print(f"FAILED {f}")
    if traced:
        for name, m in metrics.items():
            print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
