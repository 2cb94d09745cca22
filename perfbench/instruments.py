"""Call probes and the span tracer the benchmark installs on iaca.

Both work by replacing public names of the package with timing wrappers,
at the names their callers look up: ``FusionModel.forward_graph`` calls
``iaca.gating.stage1_gate``, ``train_one`` calls ``iaca.experiments.fit``,
``fit`` calls ``iaca.training.ccc_loss``. Nothing under ``src/`` is
edited. Every replacement goes through :class:`Patches`, which restores
the originals in reverse order.

The :class:`Probe` is installed for the whole run in both modes. It
times each ``fit`` and each ``predict_values`` call and is the source of
the end-to-end metrics. The :class:`Tracer` is installed only around
traced phases. It records spans (name, start, end, parent) in memory;
they are summarized and written out when the run ends.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def param_hash(model) -> str:
    """SHA-256 over parameter names, shapes and float64 bytes, name-sorted."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        value = np.ascontiguousarray(model.params[name], dtype="<f8")
        h.update(name.encode())
        h.update(repr(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def graph_size(root) -> tuple[int, int]:
    """(nodes, grad bytes) reachable from root through the public .parents."""
    seen = set()
    stack = [root]
    grad_bytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        grad = getattr(node, "grad", None)
        if isinstance(grad, np.ndarray):
            grad_bytes += grad.nbytes
        stack.extend(node.parents)
    return len(seen), grad_bytes


_YARD = np.random.default_rng(0)
_YARD_X = _YARD.normal(size=(32, 64))
_YARD_W = _YARD.normal(scale=0.2, size=(32, 32))
_YARD_L = _YARD.normal(size=(128, 128))


# Median yardstick on the machine the baseline was measured on. Setup
# times are reported as yardsticks times this, in seconds of that machine.
YARD_REF_S = 0.0075


def yardstick() -> float:
    """Seconds taken by a fixed kernel that owes nothing to iaca.

    It mimics the package's cost mix: chains of small matmuls and tanh
    that each allocate a value, a zero grad buffer and a closure, plus a
    larger row softmax. A machine that slows down for a while slows it
    about as much as the workloads.
    """
    start = time.perf_counter()
    for _ in range(40):
        nodes = []
        h = _YARD_X
        for _ in range(6):
            h = np.tanh(_YARD_W @ h + 0.1)
            nodes.append((h, np.zeros_like(h), lambda g, h=h: g * (1.0 - h * h)))
        e = np.exp(_YARD_L - _YARD_L.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    return time.perf_counter() - start


def cell_of(model) -> tuple[str, bool]:
    return model.variant, bool(model.iaca)


@dataclass
class FitRecord:
    cell: tuple
    seconds: float  # yardstick samples taken inside the fit excluded
    yardstick_s: float  # mean yardstick over the fit and right after it
    n_train: int
    epochs: int
    best_epoch: int
    best_val_ccc: float
    finite: bool
    sha256: str


class Probe:
    """Times every fit (setup included) and every predict_values call made
    while ``timing_calls`` is set, both keyed by (variant, gated) cell.

    While ``calibrating`` it also times the :func:`yardstick`: after each
    fit, whenever the runner asks, and after any predict_values call once
    ``YARD_EVERY_S`` has passed since the last sample. Each fit and each
    call can then be expressed in the yardsticks measured around it, in
    the same process and the same seconds. Samples never fall inside a
    timed call, and their time inside a fit is subtracted from the fit.
    """

    YARD_EVERY_S = 0.2

    def __init__(self, calibrating: bool):
        self.fits: list[FitRecord] = []
        self.calls: dict[tuple, list] = {}  # cell -> [(end time, seconds)]
        self.yardsticks: list[tuple[float, float]] = []  # (end time, seconds)
        self.sampled_s = 0.0  # total time spent in yardstick samples
        self.calibrating = calibrating
        self.timing_calls = False
        self._last_sample = time.perf_counter()

    def calibrate(self) -> None:
        if self.calibrating:
            seconds = yardstick()
            self._last_sample = time.perf_counter()
            self.yardsticks.append((self._last_sample, seconds))
            self.sampled_s += seconds

    def yardstick_since(self, first: int) -> float:
        """Mean of the yardstick samples taken from index ``first`` on."""
        return float(np.mean([s for _, s in self.yardsticks[first:]]))

    def install(self, patches: Patches, iaca) -> None:
        fit = iaca.training.fit
        predict_values = iaca.gating.FusionModel.predict_values
        clock = time.perf_counter

        def probed_fit(model, train, val, cfg=None):
            first_sample, sampled = len(self.yardsticks), self.sampled_s
            start = clock()
            result = fit(model, train, val, cfg)
            seconds = clock() - start - (self.sampled_s - sampled)
            self.calibrate()
            finite = all(np.isfinite([r.loss, r.train_ccc, r.val_ccc]).all()
                         for r in result.history)
            self.fits.append(FitRecord(
                cell_of(model), seconds,
                self.yardstick_since(first_sample) if self.calibrating else float("nan"),
                len(train), len(result.history), result.best_epoch, result.best_val_ccc,
                finite, param_hash(model)))
            return result

        def probed_predict_values(model, xa, xv):
            if self.timing_calls:
                start = clock()
                out = predict_values(model, xa, xv)
                end = clock()
                self.calls.setdefault(cell_of(model), []).append((end, end - start))
            else:
                out = predict_values(model, xa, xv)
            if clock() - self._last_sample >= self.YARD_EVERY_S:
                self.calibrate()
            return out

        patches.set(iaca.training, "fit", probed_fit)
        patches.set(iaca.experiments, "fit", probed_fit)
        patches.set(iaca.gating.FusionModel, "predict_values", probed_predict_values)


PREDICT = "gating.predict_values"
FIT_GATED, FIT_PLAIN = "training.fit_gated", "training.fit_plain"


def _is_fit(name: str) -> bool:
    return name in (FIT_GATED, FIT_PLAIN)


class Tracer:
    """In-memory spans plus the graph counts taken at layer boundaries.

    Spans live in four parallel lists; a span's parent is the innermost
    span open when it started, -1 at top level. Top-level spans are the
    benchmark's phase markers ("bench.setup", "bench.unit").
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.train_cell = None
        self.step_graphs: dict[tuple, tuple[int, int]] = {}
        self.forward_graphs: dict[tuple, tuple[int, int]] = {}

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _training(self) -> bool:
        """True inside a fit's own forward and backward: the innermost
        open fit or predict span is a fit. Evaluation, sweeps and dumps
        are not training."""
        for idx in reversed(self._stack):
            if _is_fit(self.names[idx]):
                return True
            if self.names[idx] == PREDICT:
                return False
        return False

    def wrap(self, fn, name: str):
        def span(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return span

    # ------------------------------------------------------------ install

    def install(self, patches: Patches, iaca) -> None:
        """Wrap the public names each layer is called through."""
        gating, training, ex = iaca.gating, iaca.training, iaca.experiments
        model_cls, tensor_cls = gating.FusionModel, iaca.autodiff.Tensor

        def span(owner, attr, name):
            patches.set(owner, attr, self.wrap(getattr(owner, attr), name))

        span(iaca.cli, "main", "cli.main")
        span(iaca.cli, "run_ablation", "experiments.ablation")
        span(ex, "train_one", "experiments.cell")
        span(ex, "missing_modality_sweep", "experiments.sweep")
        span(ex, "dump_attention", "experiments.dump")
        span(ex, "generate", "synth.generate")
        span(ex, "corrupt_missing", "synth.corrupt")
        span(iaca.checkpoint, "save_checkpoint", "checkpoint.save")
        span(iaca.checkpoint, "load_checkpoint", "checkpoint.load")
        for owner in (training, ex):
            span(owner, "evaluate", "training.evaluate")
            span(owner, "ccc", "metrics.ccc")
        span(training, "ccc_loss", "metrics.ccc_loss")
        span(training.Adam, "step", "training.optim_step")
        span(training.Sgd, "step", "training.optim_step")
        span(gating, "stage1_gate", "gating.stage1")
        span(gating, "joint_representation", "gating.joint")
        span(gating, "stage2_gate", "gating.stage2")
        span(gating, "predict", "gating.head")
        for attend in ("cross_attention", "tca_attention", "joint_cross_attention",
                       "recursive_jca", "self_attention"):
            span(gating, attend, "attention.fwd")
        span(model_cls, "bind", "gating.bind")
        span(model_cls, "predict_values", PREDICT)

        fit = training.fit
        forward_graph = model_cls.forward_graph
        backward = tensor_cls.backward

        def traced_fit(model, train, val, cfg=None):
            name = FIT_GATED if model.iaca else FIT_PLAIN
            idx = self.open(name)
            try:
                return fit(model, train, val, cfg)
            finally:
                self.close(idx)

        def traced_forward_graph(model, xa, xv, leaves):
            training = self._training()
            idx = self.open("gating.forward")
            try:
                out = forward_graph(model, xa, xv, leaves)
            finally:
                self.close(idx)
            key = (*cell_of(model), model.d, xa.shape[1])
            if training:
                self.train_cell = key
            elif key not in self.forward_graphs:
                self._walk(self.forward_graphs, key, out[0])
            return out

        def traced_backward(root):
            idx = self.open("autodiff.backward")
            try:
                backward(root)
            finally:
                self.close(idx)
            if self.train_cell not in self.step_graphs:
                self._walk(self.step_graphs, self.train_cell, root)

        patches.set(training, "fit", traced_fit)
        patches.set(ex, "fit", traced_fit)
        patches.set(model_cls, "forward_graph", traced_forward_graph)
        patches.set(tensor_cls, "backward", traced_backward)

    def _walk(self, table: dict, key, root) -> None:
        idx = self.open("bench.graph_walk")
        try:
            table[key] = graph_size(root)
        finally:
            self.close(idx)

    # ------------------------------------------------------------ summary

    def summarize(self) -> dict:
        """Per phase marker: phase count and, per span name, self and total
        nanoseconds, call count, and self nanoseconds outside training
        (see :meth:`_training`)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        root = [0] * n
        training = [False] * n
        phases: dict[str, dict] = {}
        for i in range(n):
            p = self.parents[i]
            if p < 0:
                root[i] = i
                phase = phases.setdefault(self.names[i], {"count": 0, "layers": {}})
                phase["count"] += 1
                continue
            root[i] = root[p]
            training[i] = (_is_fit(self.names[p])
                           or (training[p] and self.names[p] != PREDICT))
            layers = phases[self.names[root[i]]]["layers"]
            row = layers.setdefault(self.names[i], [0, 0, 0, 0])
            own = dur[i] - child[i]
            row[0] += own
            row[1] += dur[i]
            row[2] += 1
            if not training[i]:
                row[3] += own
        return phases

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("\t".join(map(str, row)) + "\n")
