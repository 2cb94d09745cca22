"""Gated cross-attention fusion for bimodal sequence regression.

The package trains small audio-visual fusion models on synthetic
sequences: a cross-attention stage (four variants), a two-stage gating
mechanism that decides per clip how much attended, unattended, and joint
information to pass on, and a concordance-based training loop, all on a
self-contained reverse-mode autodiff engine over float64 matrices.

The top level exports the README's library names plus ModelFlags and
derive_seed; every other name is imported from its module, such as
iaca.checkpoint. Config fields are typed by their annotations alone, and one
check serves configs read from JSON, built in Python and restored from
checkpoints (see iaca.gating).
"""

from . import attention, autodiff, checkpoint, experiments, metrics  # noqa: F401
from .gating import FusionModel, ModelFlags
from .synth import Regime, derive_seed, generate
from .training import TrainConfig, fit

__version__ = "0.1.0"
