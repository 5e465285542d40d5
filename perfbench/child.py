"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py import
        print the seconds ``import fdpkit`` takes.
    python3 perfbench/child.py validate [SPANS]
        run every validation target, in sorted order, at its default config;
        print one JSON line of per-target results.  Without SPANS each
        target is also timed at the reference speed, from ``speed.probe``
        run before and after it.
    python3 perfbench/child.py cli SPANS ARGV...
        run ``fdpkit.cli.main(ARGV)`` with tracing on.

With SPANS given, the public functions of each layer are wrapped in every
fdpkit namespace that holds them, and the spans (layer, start, end,
parent, operation) are written to SPANS as ``.npz`` when the run ends.
The library source is not touched.
"""

import sys
import time

_t0 = time.perf_counter()
_before = len(sys.modules)
if sys.argv[1] == "cli":
    import fdpkit.cli
else:
    import fdpkit
IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules) - _before

import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import tracemalloc  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

# Layer name -> the functions it covers, as "module.attribute" under fdpkit.
LAYERS = {
    "cli.ingest": ["cli.ingest"],
    "cli.output": ["cli._write_envelope_csv", "cli._write_threshold_csv"],
    "estimation.ecdf": ["estimation.ecdf"],
    "estimation.storey_a0": ["estimation.storey_a0"],
    "estimation.astar_lower": ["estimation.astar_lower"],
    "estimation.kernel_density": ["estimation.kernel_density"],
    "estimation.project_f": ["estimation.project_f"],
    "thresholds.bh_threshold": ["thresholds.bh_threshold"],
    "thresholds.plugin_threshold": ["thresholds.plugin_threshold"],
    "thresholds.bayes_classifier_threshold": ["thresholds.bayes_classifier_threshold"],
    "thresholds.oracle_threshold": ["thresholds.oracle_threshold"],
    "envelopes.exact_confidence_set": ["envelopes.exact_confidence_set"],
    "envelopes.exact_envelope": ["envelopes.exact_envelope"],
    "envelopes.asymptotic_envelope": ["envelopes.asymptotic_envelope"],
    "envelopes.brownian_sup_quantile": ["envelopes.brownian_sup_quantile"],
    "envelopes.confidence_thresholds": ["envelopes.confidence_thresholds"],
    "simulation.generate_sample": ["simulation.generate_sample"],
    "families.ppf": ["families.OneSidedNormal.ppf", "families.TwoSidedNormal.ppf",
                     "families.BetaPower.ppf"],
    "stepfun.eval": ["stepfun.StepFunction.__call__", "stepfun.StepFunction.left"],
    "kernels.eval_kernel": ["kernels.eval_kernel"],
    "model.q_inverse": ["model.q_inverse"],
}


class Tracer:
    """Spans kept in flat arrays; a span's parent is the span open when it
    started (-1 at top level)."""

    def __init__(self):
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.counts = Counter()
        self.peak_mb: dict[str, float] = {}

    def _layer_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name, start, end):
        """A top-level span timed by the caller."""
        self.layer.append(self._layer_id(name))
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, name, fn, before=None):
        lid = self._layer_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(self.stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def with_peak(self, name, fn):
        """Record the largest tracemalloc peak over calls of fn, in MB."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "fdpkit" or n.startswith("fdpkit.")]
        hooks = {
            "estimation.kernel_density": self._count_kernel_evals,
            "envelopes.exact_envelope": self._count_envelope_cells,
        }
        for name, paths in LAYERS.items():
            for path in paths:
                modname, _, qual = path.partition(".")
                owner_name, _, attr = qual.rpartition(".")
                module = sys.modules.get("fdpkit." + modname)
                if module is None:  # fdpkit.cli when validating
                    continue
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, self.wrap(name, owner.__dict__[attr]))
                    continue
                orig = getattr(module, attr)
                new = self.wrap(name, orig, hooks.get(name))
                if name == "envelopes.exact_envelope":
                    new = self.with_peak(name, new)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
        targets = sys.modules["fdpkit.simulation"].VALIDATION_TARGETS
        for target, fn in list(targets.items()):
            targets[target] = self.wrap(f"simulation.target.{target}", fn)

    def _count_kernel_evals(self, pvalues, bandwidth=None, grid_size=512):
        self.counts["estimation.kernel_density_evals"] += 3 * np.size(pvalues) * grid_size

    def _count_envelope_cells(self, confset, pvalues):
        self.counts["envelopes.exact_envelope_cells"] += np.unique(pvalues).size * np.size(pvalues)

    def save(self, path):
        meta = {
            "names": self.names,
            "counts": {k: int(v) for k, v in self.counts.items()},
            "peak_mb": self.peak_mb,
            "modules_loaded": MODULES_LOADED,
        }
        np.savez(
            path,
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _validate(tracer: Tracer | None) -> dict:
    from fdpkit.simulation import VALIDATION_TARGETS, run_validation

    targets = {}
    before = speed.probe() if tracer is None else math.nan
    for i, name in enumerate(sorted(VALIDATION_TARGETS)):
        if tracer is not None:
            tracer.op_id = i
        t = time.perf_counter()
        try:
            report = run_validation({}, name)
            res = {"passed": report.get("passed") is True, "digest": hashlib.sha256(
                json.dumps(report, sort_keys=True).encode()).hexdigest()}
        except Exception as exc:  # one broken target must not hide the others
            res = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
        res["seconds"] = time.perf_counter() - t
        if tracer is None:
            after = speed.probe()
            res["scaled"] = res["seconds"] * speed.PROBE_S / math.sqrt(before * after)
            res["probes_s"] = [before, after]
            before = after
        targets[name] = res
    return targets


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        print(IMPORT_S)
        return 0
    if mode == "validate":
        spans = argv[1] if len(argv) > 1 else None
        tracer = Tracer() if spans else None
        if tracer is not None:
            tracer.record("cli.import", _t0, _t0 + IMPORT_S)
            tracer.install()
        print(json.dumps(_validate(tracer)))
        if tracer is not None:
            tracer.save(spans)
        return 0
    if mode == "cli":
        tracer = Tracer()
        tracer.record("cli.import", _t0, _t0 + IMPORT_S)
        tracer.install()
        try:
            return fdpkit.cli.main(argv[2:])
        finally:
            sys.stdout.flush()
            tracer.save(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
