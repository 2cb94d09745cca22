"""Gated cross-attention fusion for bimodal sequence regression.

The package trains small audio-visual fusion models on synthetic
sequences: a cross-attention stage (four variants), a two-stage gating
mechanism that decides per clip how much attended, unattended, and joint
information to pass on, and a concordance-based training loop, all on a
self-contained reverse-mode autodiff engine over float64 matrices.
"""

from .attention import (
    VARIANTS,
    AttendedPair,
    JcaParams,
    JointParams,
    TcaBlockParams,
    cross_attention,
    cross_correlation,
    joint_cross_attention,
    joint_representation,
    recursive_jca,
    self_attention,
    tca_attention,
    tca_block,
)
from .autodiff import ShapeError, Tensor
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .experiments import (
    ExperimentConfig,
    dump_attention,
    missing_modality_sweep,
    relative_improvement,
    run_ablation,
    train_one,
)
from .gating import (
    Diagnostics,
    FusionModel,
    HeadParams,
    ModelFlags,
    predict,
    stage1_gate,
    stage2_gate,
)
from .metrics import ccc, ccc_loss
from .synth import (
    REGIME_KINDS,
    Regime,
    SyntheticSequence,
    corrupt_missing,
    derive_seed,
    generate,
)
from .training import (
    TrainConfig,
    TrainingDivergence,
    evaluate,
    fit,
    save_history,
)

__version__ = "0.1.0"
