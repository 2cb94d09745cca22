"""Two-stage gated fusion over attended bimodal features.

Both stages use one gating layer, two engine ops: per clip, a softmax of a
scorer's logits (gate_scores) blends K candidates, then ReLU (gate_blend).
Stage 1 scores each modality's attended feature and blends it with its
raw, unattended one. The joint layer that JCA also uses fuses the two
blends, and stage 2 scores all three stacked to gate among gated audio,
gated visual and joint. An MLP with a 16-wide
hidden layer maps each clip's fused d-vector into [-1, 1].

The gate scores carry no bias term, and the ops check every shape. The
scores are K x L, one column per clip on the simplex like every per-clip
tensor, from the layer to a model's Pass. A small temperature sharpens the
softmax so the gates act nearly as selectors while staying differentiable.
Everything after attention acts clip by clip, so FusionModel.run, the one
model pass, runs it once over all its sequences' clips: on bound leaves
it builds a graph, and on the parameter arrays it computes values alone.
param_schema, the one check of a model's description (d, variant, gating,
flags) for creation and checkpoint loads, lists its parameters,
which depend on (d, variant, gating) alone; run groups their leaves by
its "<block>.<name>" names once per call, and every block reads its dict
by those names.

Config fields are typed by their annotations and declare their own limits,
a range or choices, on the field (limited). One walk (check_types) checks
every field, nested configs' too, by its dotted path (train.seed), whether
built in Python or read from JSON (from_json_object: keys and nesting
alone); its per-value check (check_field) also serves generate, create and kin.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from .attention import (
    VARIANTS,
    AttendedPair,
    cross_attention,
    joint_cross_attention,
    joint_representation,
    recursive_jca,
    self_attention,  # noqa: F401  (perfbench wraps gating.self_attention)
    tca_attention,
)
from .autodiff import (
    Tensor,
    _as_value,
    affine,
    concat_cols,
    concat_rows,
    gate_blend,
    gate_scores,
    relu,
    tanh,
)


def stage1_gate(x_base, x_att, w_gl, temperature: float) -> tuple[Tensor, Tensor]:
    """Blend a modality's attended feature with its unattended one.

    Logits come from the attended feature: w_gl^T . x_att (2 x L),
    normalized per clip at the given temperature. Row 0 weights the base
    feature, row 1 the attended one; the convex blend passes through ReLU.
    Returns the blend and the 2 x L scores.
    """
    g = gate_scores(w_gl, x_att, temperature)
    return gate_blend(g, (x_base, x_att)), g


def stage2_gate(x_ga, x_gv, x_gav, w_avl, temperature: float) -> tuple[Tensor, Tensor]:
    """Select among gated-audio, gated-visual, and joint candidates.

    The gate sees all three stacked per clip (3d x L) so its scores can
    depend on every candidate; rows 0..2 of the softmaxed 3 x L logits
    weight x_ga, x_gv, x_gav in that order. Returns the mix and the 3 x L
    scores.
    """
    # the scores come first, so the stack dies with them before the blend
    g = gate_scores(w_avl, concat_rows(x_ga, x_gv, x_gav), temperature)
    return gate_blend(g, (x_ga, x_gv, x_gav)), g


def predict(x_fused, head: dict) -> Tensor:
    """MLP head: ReLU hidden layer, linear output, tanh into [-1, 1]."""
    hidden = relu(affine(head["w1"], x_fused, head["b1"]))
    return tanh(affine(head["w2"], hidden, head["b2"]))


# what a scalar config field of each annotated type takes from JSON, Python or
# numpy, and its name; a bool is never a number, and a float field takes ints
_FIELD_TYPES = {bool: ((bool, np.bool_), "a bool"), int: ((int, np.integer), "an int"),
                float: ((int, float, np.integer, np.floating), "a number"),
                str: (str, "a string")}
_type_hints = functools.cache(get_type_hints)


def limited(default, **limits):
    """A config field whose value check_types also holds to its limits: lo
    (at least), hi (at most) or choices (one of)."""
    return field(default=default, metadata=limits)


def check_field(label: str, hint: type, value, lo=None, hi=None, choices=None) -> None:
    """Raise ValueError naming `label` unless value has the annotated type
    `hint`, is finite for a float field (json reads NaN, infinities and ints
    past the float range), and lies in [lo, hi] and in `choices`, if given."""
    types, noun = _FIELD_TYPES.get(hint, (hint, f"a {hint.__name__}"))
    if isinstance(value, (bool, np.bool_)) != (hint is bool) or not isinstance(value, types):
        raise ValueError(f"{label} must be {noun}, got {value!r:.40}")
    try:  # a float field compares as a double: numpy casts a bound to a float32's type
        number = float(value) if hint is float else value
    except OverflowError:  # an int past the float range
        number = math.inf
    if hint is float and not math.isfinite(number):
        raise ValueError(f"{label} must be finite, got {value!r:.40}")
    if (lo is not None and number < lo) or (hi is not None and number > hi):
        bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
        raise ValueError(f"{label} must {bound}, got {value}")
    if choices is not None and value not in choices:
        raise ValueError(f"{label} must be one of {tuple(choices)}, got {value!r:.40}")


def check_types(config, where: str = "") -> None:
    """Check each field of the dataclass `config` against its annotation and
    its declared limits, naming it by its dotted path after `where`; a nested
    config's fields are checked the same way."""
    hints = _type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        check_field(where + f.name, hints[f.name], value, **f.metadata)
        if is_dataclass(value):
            check_types(value, f"{where}{f.name}.")


def from_json_object(kind, data, where: str = "", complete: bool = False):
    """Build the dataclass `kind` from a parsed JSON object, checking that every
    key names a field (values are left to check_types); dataclass-typed fields
    recurse. With `complete` (for metadata, which is written whole) a missing
    field is an error too. Problems raise ValueError naming the dotted field."""
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'config'} must be an object, got {type(data).__name__}")
    prefix = f"{where}." if where else ""
    hints = _type_hints(kind)
    unknown = sorted(prefix + key for key in set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown config fields: {unknown}")
    missing = sorted(prefix + key for key in set(hints) - set(data)) if complete else []
    if missing:
        raise ValueError(f"missing config fields: {missing}")
    return kind(**{key: from_json_object(hints[key], value, prefix + key, complete)
                   if is_dataclass(hints[key]) else value for key, value in data.items()})


@dataclass
class ModelFlags:
    """The one switch a config varies: the gate temperature. RJCA depth and
    head width are constants, not flags."""

    temperature: float = limited(0.1, lo=sys.float_info.min)  # the least normal: 1/T is finite

    def validate(self) -> None:
        check_types(self)


class Pass(NamedTuple):
    """One model pass over a list of sequences, the prediction first; each
    entry is a Tensor on a graph, or an array when no input was a Tensor."""

    prediction: Tensor | np.ndarray  # 1 x sum(L)
    pairs: list  # one AttendedPair per sequence
    gates: tuple  # stage-1 audio, stage-1 visual, stage-2: 2, 2, 3 x sum(L); () ungated


def param_schema(d: int, variant: str, iaca: bool,
                 flags: ModelFlags) -> dict[str, tuple[int, int, float]]:
    """Every parameter of a model as name -> (rows, cols, init std; 0: zeros),
    in init order; the one check of a model's description, naming a bad field."""
    check_field("d", int, d, lo=1)
    check_field("variant", str, variant, choices=VARIANTS)
    check_field("iaca", bool, iaca)
    check_field("flags", ModelFlags, flags)
    check_types(flags, "flags.")
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


@dataclass
class FusionModel:
    """Parameter bundle plus wiring for one output dimension.

    Parameters live as named float64 arrays. Training binds fresh graph
    leaves per pass (bind()), so it never reuses a spent graph. Inference
    runs on ``params`` itself, so it reads whatever the arrays hold at the
    call.
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
        check_field("seed", int, seed, lo=0)
        rng = np.random.default_rng(seed)
        # zeros draw nothing, so every normal draw keeps its place in the stream
        params = {name: rng.normal(0.0, std, size=(rows, cols)) if std
                  else np.zeros((rows, cols))
                  for name, (rows, cols, std) in param_schema(d, variant, iaca, flags).items()}
        return cls(d=d, variant=variant, iaca=iaca, flags=flags, params=params)

    def bind(self) -> dict:
        """A fresh graph leaf per parameter, by name."""
        return {name: Tensor(value) for name, value in self.params.items()}

    def _attend(self, xa, xv, blocks: dict) -> AttendedPair:
        if self.variant == "CA":
            return cross_attention(xa, xv, blocks["cross"]["w"])
        if self.variant == "TCA":
            return tca_attention(xa, xv, blocks["tca_a"], blocks["tca_v"])
        attend = joint_cross_attention if self.variant == "JCA" else recursive_jca
        return attend(xa, xv, blocks["jca"])

    def run(self, inputs, leaves: dict) -> Pass:
        """Attention per (xa, xv) sequence, then the per-clip tail once over all
        clips joined: the one pass, for training and inference. ``leaves`` maps
        each parameter name to a Tensor (a graph is built) or an array."""
        if not inputs:
            raise ValueError("run needs at least one (xa, xv) sequence")
        blocks: dict = {}  # "<block>.<name>" leaves as blocks[block][name]
        for key, leaf in leaves.items():
            block, name = key.split(".")
            blocks.setdefault(block, {})[name] = leaf
        pairs, columns = [], []
        for xa, xv in inputs:
            try:
                pairs.append(self._attend(xa, xv, blocks))
            except MemoryError as exc:
                n = np.shape(xa)[1]
                raise MemoryError(f"sequence length {n} is too long: its {n} x {n} "
                                  f"attention maps do not fit in memory ({exc})") from exc
            columns.append((pairs[-1].audio, pairs[-1].visual) + ((xa, xv) if self.iaca else ()))
        att_a, att_v, *bases = (columns[0] if len(columns) == 1
                                else [concat_cols(*parts) for parts in zip(*columns)])
        joint, head = blocks["joint"], blocks["head"]
        if not self.iaca:
            return Pass(predict(joint_representation(att_a, att_v, joint["w"], joint["b"]), head),
                        pairs, ())
        temperature = self.flags.temperature
        x_ga, g_a = stage1_gate(bases[0], att_a, blocks["gate_a"]["w"], temperature)
        x_gv, g_v = stage1_gate(bases[1], att_v, blocks["gate_v"]["w"], temperature)
        x_gav = joint_representation(x_ga, x_gv, joint["w"], joint["b"])
        fused, g_av = stage2_gate(x_ga, x_gv, x_gav, blocks["gate_av"]["w"], temperature)
        return Pass(predict(fused, head), pairs, (g_a, g_v, g_av))

    def forward_graph(self, xa, xv, leaves: dict) -> Pass:
        """The pass of one sequence; stays while perfbench wraps it (ROADMAP items 2 and 6)."""
        return self.run([(xa, xv)], leaves)

    def forward(self, xa_value, xv_value) -> Pass:
        """The pass of one sequence on the parameter arrays: a Pass of arrays,
        no graph built."""
        return self.run([(_as_value(xa_value), _as_value(xv_value))], self.params)

    def predict_values(self, xa_value, xv_value) -> np.ndarray:
        """The 1 x L prediction of :meth:`forward`."""
        return self.forward(xa_value, xv_value).prediction
