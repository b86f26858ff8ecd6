"""Alternating projected-gradient optimization for low-rank adapters.

The library updates one low-rank factor at a time with Gram-preconditioned
gradients and keeps first-moment momentum aligned to the moving subspaces,
all within factor-shaped memory. Every closed form ships with an
independent brute-force oracle, and a small experiment harness reproduces
the structural properties (projection decomposition, gauge invariance,
width-stable updates, condition-number-free convergence) at desk scale.
"""

__version__ = "0.1.0"

from .adapter import (
    FullGradient,
    LoraLayer,
    ToyModel,
    forward,
    full_gradient,
    init_layer,
    lora_grads,
    merged_weight,
    mse_loss,
    training_pass,
)
from .bench import (
    DivergenceDetected,
    ExperimentSpec,
    InvalidSpec,
    RunRecord,
    Task,
    generate_task,
    run_experiment,
    state_accounting,
    width_scaling_probe,
)
from .matcore import (
    RandomStream,
    ShapeMismatch,
    SingularGram,
    damped_gram_inverse,
    gauge_sample,
    jacobi_svd,
    projector,
)
from .optim import (
    AltLoraState,
    TrainConfig,
    align_momentum_a,
    align_momentum_b,
    altlora_plus_step,
    altlora_step,
    baseline_step,
    lorapro_equiv_grad,
    scaled_grad_a,
    scaled_grad_b,
)
from .oracle import (
    DecompositionReport,
    PreconditionViolated,
    SingularSystem,
    decompose_pair_step,
    equivalent_update,
    lstsq_oracle,
    projector_gauge_check,
    run_checks,
    trajectory_invariance_check,
)
