"""Benchmark of the iaca package: three workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ablation_c5 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs spans
around the package's public functions and prints the per-layer metrics
plus the tracing overhead. ``--workload all`` runs every workload, each
in its own process. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every output check passed. Details, the environment record and
(when traced) the raw spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread, set before numpy first loads: a second thread runs
    # on the other core, where other tenants' load adds noise that the
    # single-threaded yardstick cannot see.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

from instruments import YARD_REF_S, Patches, Probe, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# Per workload and seed, the mean best validation CCC and the distinct
# parameter SHA-256s of the baseline (default workload sizes only).
REFERENCE = HERE / "reference.json"
CCC_DROP_TOL = 0.02

# "yd" is one yardstick: the duration of instruments.yardstick, sampled
# around each setup, fit and call in the same run, which cancels drifts of
# machine speed. setup_s is in yardsticks too, scaled by YARD_REF_S to
# seconds of the baseline machine. The median and p99 latency stay in the
# details: a shared machine can flip between a fast and a slow mode, and
# both jump with it.
END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "train_seq_per_yd": ("seq/yd", "higher"),
    "gated_epoch_yd": ("yd", "lower"),
    "plain_epoch_yd": ("yd", "lower"),
    "infer_seq_per_yd": ("seq/yd", "higher"),
    "infer_p90_yd": ("yd", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "val_ccc_mean": ("ccc", "higher"),
}

PER_LAYER = {
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.nodes_per_step": ("count", "lower"),
    "autodiff.grad_mb_per_step": ("MB", "lower"),
    "autodiff.nodes_per_forward": ("count", "lower"),
    "attention.fwd_train_s": ("s", "lower"),
    "attention.fwd_eval_s": ("s", "lower"),
    "attention.calls": ("count", "lower"),
    "gating.stage1_fwd_s": ("s", "lower"),
    "gating.joint_fwd_s": ("s", "lower"),
    "gating.stage2_fwd_s": ("s", "lower"),
    "gating.head_fwd_s": ("s", "lower"),
    "gating.bind_s": ("s", "lower"),
    "gating.forward_self_s": ("s", "lower"),
    "metrics.ccc_loss_s": ("s", "lower"),
    "metrics.ccc_s": ("s", "lower"),
    "training.optim_step_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.evaluate_s": ("s", "lower"),
    "training.evaluate_share": ("ratio", "lower"),
    "training.epochs_run": ("count", "lower"),
    "training.wasted_epoch_frac": ("ratio", "lower"),
    "training.fit_gated_s": ("s", "lower"),
    "training.fit_plain_s": ("s", "lower"),
    "synth.generate_s": ("s", "lower"),
    "synth.corrupt_s": ("s", "lower"),
    "checkpoint.save_s": ("s", "lower"),
    "checkpoint.load_s": ("s", "lower"),
    "checkpoint.bytes": ("count", "lower"),
    "experiments.cells": ("count", "higher"),
    "experiments.cells_failed": ("count", "lower"),
    "experiments.sweep_s": ("s", "lower"),
    "experiments.dump_s": ("s", "lower"),
    "experiments.robust_gap": ("ccc", "higher"),
    "cli.main_self_s": ("s", "lower"),
    "bench.wall_s": ("s", "lower"),
    "bench.trace_overhead_s": ("s", "lower"),
    "src.lines": ("count", "lower"),
}

# span name -> [(per-layer metric, column of the Tracer.summarize row)];
# columns: 0 self time, 1 total time, 2 calls
SPAN_METRICS = {
    "autodiff.backward": [("autodiff.backward_s", 0)],
    "attention.fwd": [("attention.calls", 2)],
    "gating.stage1": [("gating.stage1_fwd_s", 0)],
    "gating.joint": [("gating.joint_fwd_s", 0)],
    "gating.stage2": [("gating.stage2_fwd_s", 0)],
    "gating.head": [("gating.head_fwd_s", 0)],
    "gating.bind": [("gating.bind_s", 0)],
    "gating.forward": [("gating.forward_self_s", 0)],
    "metrics.ccc_loss": [("metrics.ccc_loss_s", 0)],
    "metrics.ccc": [("metrics.ccc_s", 0)],
    "training.optim_step": [("training.optim_step_s", 0), ("training.steps", 2)],
    "training.evaluate": [("training.evaluate_s", 1)],
    "training.fit_gated": [("training.fit_gated_s", 1)],
    "training.fit_plain": [("training.fit_plain_s", 1)],
    "synth.generate": [("synth.generate_s", 0)],
    "synth.corrupt": [("synth.corrupt_s", 0)],
    "checkpoint.save": [("checkpoint.save_s", 0)],
    "checkpoint.load": [("checkpoint.load_s", 0)],
    "experiments.cell": [("experiments.cells", 2)],
    "experiments.sweep": [("experiments.sweep_s", 1)],
    "experiments.dump": [("experiments.dump_s", 1)],
    "cli.main": [("cli.main_self_s", 0)],
}


class MissingPackage(RuntimeError):
    """The checkout holds no iaca sources to benchmark."""


def load_package(root: Path = ROOT):
    """Import iaca from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "iaca" / "__init__.py").is_file():
        raise MissingPackage(f"no iaca sources under {src}")
    sys.path.insert(0, str(src))
    import iaca
    import iaca.cli  # noqa: F401  (not imported by the package itself)
    if Path(iaca.__file__).resolve().parent != (src / "iaca").resolve():
        raise MissingPackage(f"iaca imported from {iaca.__file__}, not {src}")
    return iaca


# ------------------------------------------------------------- environment

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def environment(root: Path = ROOT) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "loadavg_1m": os.getloadavg()[0],
    }


# ------------------------------------------------------------------ runner

class Phase:
    """One top-level span; installs the tracer's wrappers while it is open."""

    def __init__(self, tracer, name: str, iaca):
        self.tracer, self.name, self.iaca = tracer, name, iaca

    def __enter__(self):
        if self.tracer is not None:
            self.patches = Patches()
            self.tracer.install(self.patches, self.iaca)
            self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.close(self.idx)
            self.patches.undo()
        return False


def run_workload(iaca, name: str, workload, seed: int, seconds: float,
                 trace: bool, workdir: Path) -> dict:
    """Set up several times, then run timed units for ``seconds``.

    With ``trace`` the setups are traced and the units alternate between
    untraced and traced, starting untraced, so that one run yields both
    the per-layer figures and the tracing overhead. A diverging fit ends
    the run as one failed check.
    """
    from workloads import Checks

    checks, probe, patches = Checks(), Probe(calibrating=not trace), Patches()
    tracer = Tracer() if trace else None
    setup_s, setup_yd, digests, setup_fits = [], [], [], []
    units, summaries, unit_fits = [], [], []
    diverged = None
    probe.install(patches, iaca)
    try:
        for _ in range(workload.setups):
            gc.collect()
            n_fits = len(probe.fits)
            probe.calibrate()
            first, sampled = len(probe.yardsticks) - 1, probe.sampled_s
            with Phase(tracer, "bench.setup", iaca):
                start = time.perf_counter()
                state = workload.setup(seed, workdir)
                wall = time.perf_counter() - start
            setup_s.append(wall - (probe.sampled_s - sampled))
            probe.calibrate()
            if probe.calibrating:
                setup_yd.append(probe.yardstick_since(first))
            digests.append(state.digest)
            setup_fits.append(probe.fits[n_fits:])
        checks.check("setup repeats exactly", len(set(digests)) == 1)

        began = time.perf_counter()
        while True:
            traced = trace and len(units) % 2 == 1
            gc.collect()
            n_fits = len(probe.fits)
            probe.timing_calls = True
            with Phase(tracer if traced else None, "bench.unit", iaca):
                start = time.perf_counter()
                output = workload.unit(state)
                wall = time.perf_counter() - start
            probe.timing_calls = False
            probe.calibrate()
            fits = probe.fits[n_fits:]
            units.append((wall, traced))
            unit_fits.append((fits, traced))
            summaries.append(workload.check_unit(state, output, fits, checks))
            del output
            both = not trace or len(units) >= 2
            if both and time.perf_counter() - began + wall > seconds:
                break
        checks.check("units repeat exactly", all(s == summaries[0] for s in summaries))
    except iaca.training.TrainingDivergence as exc:
        diverged = str(exc)
        checks.check(f"no fit diverges ({exc})", False)
    finally:
        patches.undo()

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "units": len(units), "unit_walls_s": [w for w, _ in units],
        "setup_walls_s": setup_s,
        "fits": [vars(f) | {"cell": list(f.cell)} for f in probe.fits],
        "infer_samples": {f"{v}/{'gated' if g else 'plain'}": len(c)
                          for (v, g), c in probe.calls.items()},
        "summary": {k: v for k, v in (summaries[:1] or [{}])[0].items()
                    if k in ("robust_gap", "cells_failed")},
    }
    if probe.fits:
        report["val_ccc_mean"] = val_ccc_mean(probe)
        if workload == type(workload)():
            compare_reference(report, probe, checks)
    report.update(attempted=checks.attempted, failed_checks=checks.failed)
    if diverged is not None:
        # Nothing left to measure: every metric reads NaN.
        report["metrics"] = dict.fromkeys(PER_LAYER if trace else END_TO_END, float("nan"))
    elif trace:
        report["metrics"] = per_layer(tracer, state, summaries[0], units, setup_fits,
                                      unit_fits)
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{name}-seed{seed}.tsv")
    else:
        report["raw"] = raw_timings(probe) | {"setup_s": statistics.median(setup_s)}
        report["metrics"] = end_to_end(probe, setup_s, setup_yd)
    return report


def compare_reference(report: dict, probe, checks) -> None:
    """Set the trained parameters and val_ccc_mean against the baseline of
    this workload and seed, where one is recorded. Changed parameters are
    reported; a mean CCC more than CCC_DROP_TOL below the baseline fails."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref = reference.get(report["workload"], {}).get(str(report["seed"]))
    if ref is None:
        return
    report["reference"] = {
        "val_ccc_mean": ref["val_ccc_mean"],
        "params_same": sorted({f.sha256 for f in probe.fits}) == ref["fits"],
    }
    checks.check(f"val_ccc_mean at most {CCC_DROP_TOL} below the reference",
                 report["val_ccc_mean"] >= ref["val_ccc_mean"] - CCC_DROP_TOL)


def _by_cell(records):
    cells = {}
    for cell, value in records:
        cells.setdefault(cell, []).append(value)
    return cells


def timings(probe, calibrated: bool) -> dict:
    """Fit and inference figures, in seconds or, calibrated, in yardsticks.

    Fit figures are medians over the fits of each (variant, gated) cell and
    latencies are taken per cell; both are then averaged over cells, so
    the mix of early-stopped epochs does not weigh in. A calibrated fit is
    divided by the yardsticks sampled during and right after it, a
    calibrated call by the mean of the samples just before and after it.
    """
    fits = _by_cell((f.cell, f) for f in probe.fits)
    calls = [np.asarray(c) for c in probe.calls.values()]
    if calibrated:
        at = np.array([t for t, _ in probe.yardsticks])
        yd = np.array([s for _, s in probe.yardsticks])

        def fit_time(f):
            return f.seconds / f.yardstick_s

        def latencies(c):
            i = np.clip(np.searchsorted(at, c[:, 0]), 1, len(at) - 1)
            return c[:, 1] / ((yd[i - 1] + yd[i]) / 2)
    else:
        def fit_time(f):
            return f.seconds

        def latencies(c):
            return c[:, 1]

    def per_epoch(gated):
        return statistics.fmean(statistics.median(fit_time(f) / f.epochs for f in fs)
                                for (_, g), fs in fits.items() if g == gated)

    lat = [latencies(c) for c in calls]
    return {
        "train_seq_per": statistics.fmean(
            statistics.median(f.n_train * f.epochs / fit_time(f) for f in fs)
            for fs in fits.values()),
        "gated_epoch": per_epoch(True),
        "plain_epoch": per_epoch(False),
        "infer_seq_per": statistics.fmean(len(x) / x.sum() for x in lat),
        "infer_p50": statistics.fmean(np.median(x) for x in lat),
        "infer_p90": statistics.fmean(np.percentile(x, 90) for x in lat),
        "infer_p99": statistics.fmean(np.percentile(x, 99) for x in lat),
    }


def raw_timings(probe) -> dict:
    """The uncalibrated figures, kept next to the metrics."""
    raw = {f"{k}_s": v for k, v in timings(probe, calibrated=False).items()}
    raw["yardstick_s"] = statistics.median(s for _, s in probe.yardsticks)
    raw["yardsticks"] = len(probe.yardsticks)
    raw["infer_samples_min"] = min(len(c) for c in probe.calls.values())
    return raw


def end_to_end(probe, setup_s, setup_yd) -> dict:
    yd = timings(probe, calibrated=True)
    return {
        "setup_s": statistics.median(s / y for s, y in zip(setup_s, setup_yd)) * YARD_REF_S,
        **{f"{k}_yd": yd[k] for k in ("train_seq_per", "gated_epoch", "plain_epoch",
                                       "infer_seq_per", "infer_p90")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "val_ccc_mean": val_ccc_mean(probe),
    }


def val_ccc_mean(probe) -> float:
    """Mean best validation CCC over the distinct fits, so that it does
    not depend on how many times a run repeated them."""
    return statistics.fmean({f.sha256: f.best_val_ccc for f in probe.fits}.values())


def per_layer(tracer, state, summary, units, setup_fits, unit_fits) -> dict:
    """Per-layer figures for one setup plus one timed unit."""
    phases = tracer.summarize()
    metrics = dict.fromkeys(PER_LAYER, 0.0)

    for phase in phases.values():
        count = phase["count"]
        for span, row in phase["layers"].items():
            for metric, col in SPAN_METRICS.get(span, ()):
                metrics[metric] += row[col] / (1 if col == 2 else 1e9) / count
            if span == "attention.fwd":
                metrics["attention.fwd_train_s"] += (row[0] - row[3]) / 1e9 / count
                metrics["attention.fwd_eval_s"] += row[3] / 1e9 / count

    traced_fits = [fits for fits, traced in unit_fits if traced]
    epochs = wasted = 0.0
    for group in (setup_fits, traced_fits):
        for fits in group:
            epochs += sum(f.epochs for f in fits) / len(group)
            wasted += sum(f.epochs - f.best_epoch - 1 for f in fits) / len(group)
    metrics["training.epochs_run"] = epochs
    metrics["training.wasted_epoch_frac"] = wasted / epochs if epochs else 0.0
    fit_s = metrics["training.fit_gated_s"] + metrics["training.fit_plain_s"]
    metrics["training.evaluate_share"] = (metrics["training.evaluate_s"] / fit_s
                                          if fit_s else 0.0)

    def mean_of(table, col):
        return statistics.fmean(v[col] for v in table.values()) if table else 0.0

    metrics["autodiff.nodes_per_step"] = mean_of(tracer.step_graphs, 0)
    metrics["autodiff.grad_mb_per_step"] = mean_of(tracer.step_graphs, 1) / 1e6
    metrics["autodiff.nodes_per_forward"] = mean_of(tracer.forward_graphs, 0)
    metrics["checkpoint.bytes"] = float(state.checkpoint_bytes)
    metrics["experiments.cells_failed"] = float(summary.get("cells_failed", 0))
    metrics["experiments.robust_gap"] = float(summary.get("robust_gap", 0.0))
    plain = statistics.median(w for w, traced in units if not traced)
    metrics["bench.wall_s"] = plain
    metrics["bench.trace_overhead_s"] = statistics.median(
        w for w, traced in units if traced) - plain
    metrics["src.lines"] = float(src_lines())
    return metrics


# --------------------------------------------------------------------- CLI

def _print_table(names: dict, metrics: dict) -> None:
    for metric, (unit, better) in names.items():
        print(f"  {metric:28s} {metrics[metric]:>14.6g} {unit:6s} ({better} is better)")


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    from workloads import WORKLOADS
    ok, attempted, failed, merged = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            # No result line: the workload counts as one failed operation.
            ok, attempted, failed = False, attempted + 1, failed + 1
            continue
        ok &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ablation_c5", "sweep_c6", "fit_long", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        iaca = load_package()
    except (MissingPackage, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        report = run_workload(iaca, args.workload, WORKLOADS[args.workload](), args.seed,
                              args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return emit(report, bool(args.trace))


def emit(report: dict, trace: bool) -> int:
    """Record the environment, write the details file, print the metrics
    and the result line; the exit code is 1 if any check failed."""
    env = report["env"] = environment()
    report["attempted"] += 1
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        report["failed_checks"].append("BLAS threads <= nproc")
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{report['workload']}-seed{report['seed']}-trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True))

    names = PER_LAYER if trace else END_TO_END
    failed = len(report["failed_checks"])
    print(f"{report['workload']} seed {report['seed']}: {report['units']} timed unit(s), "
          f"{report['attempted']} checks, {failed} failed")
    for failure in report["failed_checks"]:
        print(f"  FAILED: {failure}")
    _print_table(names, report["metrics"])
    if "raw" in report:
        print("raw: " + json.dumps(report["raw"], sort_keys=True))
    if "reference" in report:
        same = report["reference"]["params_same"]
        print(f"reference: parameters {'same as' if same else 'DIFFER from'} the baseline, "
              f"val_ccc_mean {report['val_ccc_mean']:.6g} "
              f"(baseline {report['reference']['val_ccc_mean']:.6g})")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"details: {os.path.relpath(out)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": report["attempted"], "failed": failed,
        "metrics": {m: {"value": report["metrics"][m], "unit": unit}
                    for m, (unit, _) in names.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
