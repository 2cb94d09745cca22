"""Two-stage gated fusion over attended bimodal features.

Both stages use one gating layer: per clip, a softmax of a scorer's logits
blends K candidates, then ReLU. Stage 1 scores each modality's attended
feature and blends it with its raw, unattended one. The joint layer that
JCA also uses fuses the two blends, and stage 2 scores all three stacked
to gate among gated audio, gated visual and joint. An MLP with a 16-wide
hidden layer maps each clip's fused d-vector into [-1, 1].

The gate scores carry no bias term, and the ops check every shape. The
scores are K x L, one column per clip on the simplex like every per-clip
tensor, from the layer to a model's Pass. A small temperature sharpens the
softmax so the gates act nearly as selectors while staying differentiable.
Everything after attention acts clip by clip, so FusionModel.run, the one
graph builder, runs it once over all its sequences' clips. param_schema
lists a model's parameters, which depend on (d, variant, gating) alone, for
creation and checkpoint loads.

Config fields are typed by their annotations alone, and one per-value check
serves configs built in Python (check_types), read from JSON files and
restored from checkpoints (from_json_object).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from .attention import (
    VARIANTS,
    AttendedPair,
    JcaParams,
    JointParams,
    TcaBlockParams,
    cross_attention,
    joint_cross_attention,
    joint_representation,
    recursive_jca,
    self_attention,  # noqa: F401  (perfbench wraps gating.self_attention)
    tca_attention,
)
from .autodiff import (
    Tensor,
    add_col,
    concat_cols,
    concat_rows,
    gate_mix,
    matmul,
    relu,
    softmax,
    tanh,
    transpose,
)


@dataclass
class HeadParams:
    w1: Tensor  # h x d
    b1: Tensor  # h x 1
    w2: Tensor  # 1 x h
    b2: Tensor  # 1 x 1


def _gate(scorer, w, candidates, temperature: float) -> tuple[Tensor, Tensor]:
    # the gating layer: K x L scores softmax(w^T . scorer / T), one column per
    # clip, weight the K candidates; returns the ReLU'd blend and the scores
    g = softmax(matmul(transpose(w), scorer), temperature=temperature)
    return relu(gate_mix(g, candidates)), g


def stage1_gate(x_base, x_att, w_gl, temperature: float) -> tuple[Tensor, Tensor]:
    """Blend a modality's attended feature with its unattended one.

    Logits come from the attended feature: w_gl^T . x_att (2 x L),
    normalized per clip at the given temperature. Row 0 weights the base
    feature, row 1 the attended one; the convex blend passes through ReLU.
    Returns the blend and the 2 x L scores.
    """
    return _gate(x_att, w_gl, (x_base, x_att), temperature)


def stage2_gate(x_ga, x_gv, x_gav, w_avl, temperature: float) -> tuple[Tensor, Tensor]:
    """Select among gated-audio, gated-visual, and joint candidates.

    The gate sees all three stacked per clip (3d x L) so its scores can
    depend on every candidate; rows 0..2 of the softmaxed 3 x L logits
    weight x_ga, x_gv, x_gav in that order. Returns the mix and the 3 x L
    scores.
    """
    return _gate(concat_rows(x_ga, x_gv, x_gav), w_avl, (x_ga, x_gv, x_gav), temperature)


def predict(x_fused, head: HeadParams) -> Tensor:
    """MLP head: ReLU hidden layer, linear output, tanh into [-1, 1]."""
    hidden = relu(add_col(matmul(head.w1, x_fused), head.b1))
    return tanh(add_col(matmul(head.w2, hidden), head.b2))


# what a scalar config field of each annotated type takes from JSON, Python or
# numpy, and its name; a bool is never a number, and a float field takes ints
_FIELD_TYPES = {bool: ((bool, np.bool_), "a bool"), int: ((int, np.integer), "an int"),
                float: ((int, float, np.integer, np.floating), "a number"),
                str: (str, "a string")}
_type_hints = functools.cache(get_type_hints)


def _check_field(label: str, hint: type, value) -> None:
    """Raise ValueError naming `label` unless value has the annotated type
    `hint` and, for a float field, is finite: not NaN, not infinite and not
    an int past the float range (Python's json reads all three)."""
    types, noun = _FIELD_TYPES.get(hint, (hint, f"a {hint.__name__}"))
    if isinstance(value, (bool, np.bool_)) != (hint is bool) or not isinstance(value, types):
        raise ValueError(f"{label} must be {noun}, got {value!r:.40}")
    try:
        finite = hint is not float or math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValueError(f"{label} must be finite, got {value!r:.40}")


def check_types(config) -> None:
    """Check each field of the dataclass `config` against its annotation, as
    from_json_object checks a config file's; a nested config's own fields are
    left to its own validate."""
    for name, hint in _type_hints(type(config)).items():
        _check_field(name, hint, getattr(config, name))


def from_json_object(kind, data, where: str = "", complete: bool = False):
    """Build the dataclass `kind` from a parsed JSON object, checking that
    every key names a field and every value has its field's annotated type
    (see check_types); dataclass-typed fields recurse. With `complete` (for
    metadata, which is written whole) a missing field is an error too.
    Problems raise ValueError naming the dotted field."""
    if not isinstance(data, dict):
        raise ValueError(f"config field {where!r} must be an object" if where
                         else f"config must be an object, got {type(data).__name__}")
    prefix = f"{where}." if where else ""
    hints = _type_hints(kind)
    unknown = sorted(prefix + key for key in set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    missing = sorted(prefix + key for key in set(hints) - set(data)) if complete else []
    if missing:
        raise ValueError(f"missing config fields: {missing}")
    values = {}
    for key, value in data.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = from_json_object(hint, value, prefix + key, complete)
        else:
            _check_field(f"config field {prefix + key!r}", hint, value)
        values[key] = value
    return kind(**values)


@dataclass
class ModelFlags:
    """The one switch a config varies: the gate temperature. RJCA depth and
    head width are constants, not flags."""

    temperature: float = 0.1

    def validate(self) -> None:
        check_types(self)
        # the gates divide their logits by the temperature, and a subnormal one
        # overflows; a Python float, so a float32 temperature is not cast back
        if not (0 < self.temperature and 1.0 / float(self.temperature) < math.inf):
            raise ValueError("temperature must be positive and finite, with a finite "
                             f"reciprocal, got {self.temperature}")


class Pass(NamedTuple):
    """One model pass over a list of sequences, the prediction first."""

    prediction: Tensor  # 1 x sum(L)
    pairs: list  # one AttendedPair per sequence
    gates: tuple  # stage-1 audio, stage-1 visual, stage-2: 2, 2, 3 x sum(L); () ungated


def param_schema(d: int, variant: str, iaca: bool) -> dict[str, tuple[int, int, float]]:
    """Every parameter of a model as name -> (rows, cols, init std), in
    initialization order; std 0 marks a parameter initialized to zeros."""
    if d < 1:
        raise ValueError(f"feature dimension must be >= 1, got {d}")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    schema: dict = {}
    if variant == "CA":
        schema["cross.w"] = (d, d, 1.0 / d)
    elif variant == "TCA":
        h = 2 * d
        for side in ("tca_a", "tca_v"):
            schema[f"{side}.wq"] = (d, d, 1.0 / np.sqrt(d))
            schema[f"{side}.wk"] = (d, d, 1.0 / np.sqrt(d))
            schema[f"{side}.wv"] = (d, d, 1.0 / np.sqrt(d))
            schema[f"{side}.ff1_w"] = (h, d, 1.0 / np.sqrt(d))
            schema[f"{side}.ff1_b"] = (h, 1, 0.0)
            schema[f"{side}.ff2_w"] = (d, h, 1.0 / np.sqrt(h))
            schema[f"{side}.ff2_b"] = (d, 1, 0.0)
    else:
        schema["jca.joint_w"] = (d, 2 * d, 1.0 / np.sqrt(2 * d))
        schema["jca.joint_b"] = (d, 1, 0.0)
        schema["jca.cross_a"] = (d, d, 1.0 / d)
        schema["jca.cross_v"] = (d, d, 1.0 / d)

    if iaca:
        schema["gate_a.w"] = (d, 2, 1.0 / np.sqrt(d))
        schema["gate_v.w"] = (d, 2, 1.0 / np.sqrt(d))
        schema["gate_av.w"] = (3 * d, 3, 1.0 / np.sqrt(3 * d))

    schema["joint.w"] = (d, 2 * d, 1.0 / np.sqrt(2 * d))
    schema["joint.b"] = (d, 1, 0.0)
    hh = 16  # the head's hidden width
    schema["head.w1"] = (hh, d, 1.0 / np.sqrt(d))
    schema["head.b1"] = (hh, 1, 0.0)
    schema["head.w2"] = (1, hh, 1.0 / np.sqrt(hh))
    schema["head.b2"] = (1, 1, 0.0)
    return schema


@functools.cache
def _field_names(kind) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind))


def _block(kind, leaves: dict, prefix: str):
    # a parameter dataclass filled from the leaves named "<prefix>.<field>"
    return kind(**{name: leaves[f"{prefix}.{name}"] for name in _field_names(kind)})


@dataclass
class FusionModel:
    """Parameter bundle plus wiring for one output dimension.

    Parameters live as named float64 arrays; bind() wraps them in fresh
    graph leaves (or constants, for inference), one set per pass, so
    training never reuses a spent graph.
    """

    d: int
    variant: str
    iaca: bool
    flags: ModelFlags = field(default_factory=ModelFlags)
    params: dict = field(default_factory=dict)

    @classmethod
    def create(cls, d: int, variant: str, iaca: bool,
               flags: Optional[ModelFlags] = None, seed: int = 0) -> "FusionModel":
        flags = flags if flags is not None else ModelFlags()
        flags.validate()
        rng = np.random.default_rng(seed)
        # zeros draw nothing, so every normal draw keeps its place in the stream
        params = {name: rng.normal(0.0, std, size=(rows, cols)) if std
                  else np.zeros((rows, cols))
                  for name, (rows, cols, std) in param_schema(d, variant, iaca).items()}
        return cls(d=d, variant=variant, iaca=iaca, flags=flags, params=params)

    def bind(self, requires_grad: bool = True) -> dict:
        return {name: Tensor(value, requires_grad=requires_grad)
                for name, value in self.params.items()}

    def _attend(self, xa: Tensor, xv: Tensor, leaves: dict) -> AttendedPair:
        if self.variant == "CA":
            return cross_attention(xa, xv, leaves["cross.w"])
        if self.variant == "TCA":
            return tca_attention(xa, xv, _block(TcaBlockParams, leaves, "tca_a"),
                                 _block(TcaBlockParams, leaves, "tca_v"))
        jca = _block(JcaParams, leaves, "jca")
        if self.variant == "JCA":
            return joint_cross_attention(xa, xv, jca)
        return recursive_jca(xa, xv, jca)

    def run(self, inputs, leaves: dict) -> Pass:
        """Attention per (xa, xv) sequence, then the per-clip tail once over all
        clips joined: the one graph builder, for training and inference."""
        pairs, columns = [], []
        for xa, xv in inputs:
            try:
                pairs.append(self._attend(xa, xv, leaves))
            except MemoryError as exc:
                n = xa.shape[1]
                raise MemoryError(f"sequence length {n} is too long: its {n} x {n} "
                                  f"attention maps do not fit in memory ({exc})") from exc
            columns.append((pairs[-1].audio, pairs[-1].visual) + ((xa, xv) if self.iaca else ()))
        att_a, att_v, *bases = (columns[0] if len(columns) == 1
                                else [concat_cols(*parts) for parts in zip(*columns)])
        joint = _block(JointParams, leaves, "joint")
        head = _block(HeadParams, leaves, "head")
        if not self.iaca:
            return Pass(predict(joint_representation(att_a, att_v, joint), head), pairs, ())
        temperature = self.flags.temperature
        x_ga, g_a = stage1_gate(bases[0], att_a, leaves["gate_a.w"], temperature)
        x_gv, g_v = stage1_gate(bases[1], att_v, leaves["gate_v.w"], temperature)
        x_gav = joint_representation(x_ga, x_gv, joint)
        fused, g_av = stage2_gate(x_ga, x_gv, x_gav, leaves["gate_av.w"], temperature)
        return Pass(predict(fused, head), pairs, (g_a, g_v, g_av))

    def forward_graph(self, xa: Tensor, xv: Tensor, leaves: dict) -> Pass:
        """The pass of one sequence."""
        return self.run([(xa, xv)], leaves)

    def forward(self, xa_value, xv_value) -> Pass:
        """forward_graph on plain arrays, all bound as constants: no graph kept."""
        xa, xv = (Tensor(x, requires_grad=False) for x in (xa_value, xv_value))
        return self.forward_graph(xa, xv, self.bind(requires_grad=False))

    def predict_values(self, xa_value, xv_value) -> np.ndarray:
        """The 1 x L prediction of :meth:`forward`."""
        return self.forward(xa_value, xv_value).prediction.value
