"""Temporal-aware rotary attention with frame-block causal masking.

Numerical kernels for attention over multimodal (text + video-frame) token
sequences: frame-level temporal position ids folded into rotary embeddings,
four attention-mask variants, a hand-differentiated forward/backward pass,
and a deterministic desk-scale experiment harness.
"""

from .attention import (
    AttentionConfig,
    AttentionGrads,
    AttentionPlan,
    AttentionResult,
    PeMode,
    attention_backward,
    attention_brute_oracle,
    attention_forward,
    plan_attention,
)
from .harness import (
    PAPER_GAMMA_GRID,
    TrialConfig,
    TrialReport,
    ablation_grid,
    gamma_sweep,
    run_trials,
    train_trial,
)
from .layout import (
    PositionTable,
    SequenceLayout,
    TokenRole,
    adjusted_positions,
    build_layout,
    temporal_ids,
)
from .masks import (
    AttentionMask,
    MaskKind,
    allowed,
    build_mask,
    mask_stats,
    mask_to_csv,
    mask_to_pgm,
)
from .model import ModelConfig, TinyModel
from .numerics import NonFiniteError, make_rng, masked_row_softmax
from .rope import (
    FrequencyTable,
    RopeConfig,
    frequencies,
    pair_score,
    rotary_oracle,
    rotate_rows,
)
from .tasks import Dataset, Task, gen_task

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionGrads",
    "AttentionMask",
    "AttentionPlan",
    "AttentionResult",
    "Dataset",
    "FrequencyTable",
    "MaskKind",
    "ModelConfig",
    "NonFiniteError",
    "PAPER_GAMMA_GRID",
    "PeMode",
    "PositionTable",
    "RopeConfig",
    "SequenceLayout",
    "Task",
    "TinyModel",
    "TokenRole",
    "TrialConfig",
    "TrialReport",
    "ablation_grid",
    "adjusted_positions",
    "allowed",
    "attention_backward",
    "attention_brute_oracle",
    "attention_forward",
    "build_layout",
    "build_mask",
    "frequencies",
    "gamma_sweep",
    "gen_task",
    "make_rng",
    "mask_stats",
    "mask_to_csv",
    "mask_to_pgm",
    "masked_row_softmax",
    "pair_score",
    "plan_attention",
    "rotary_oracle",
    "rotate_rows",
    "run_trials",
    "temporal_ids",
    "train_trial",
    "__version__",
]
