"""``repro.core`` — Shredder's noise-learning framework (the paper's
primary contribution).

* :class:`NoiseTensor` — the trainable additive noise (§2.1, §2.4).
* :class:`ShredderLoss` — Eq. 2 / Eq. 3 accuracy-privacy loss.
* :class:`NoiseTrainer` — gradient-based noise training with λ schedules.
* :class:`NoiseCollection` — noise distribution sampling (§2.5).
* :class:`SplitInferenceModel` — the edge/cloud split runtime (Figure 2).
* :class:`ShredderPipeline` — end-to-end train + measure.
"""

from repro.core.activation_cache import (
    ActivationCache,
    clear_activation_cache,
    get_activation_cache,
    materialize_activations_cached,
)
from repro.core.adaptive import (
    OperatingPointSearch,
    SearchProbe,
    SearchResult,
    accuracy_budget_evaluator,
    require_converged,
)
from repro.core.baselines import (
    activation_sensitivity,
    laplace_mechanism_noise,
    matched_variance_noise,
)
from repro.core.distribution import DistributionSummary, FittedNoiseDistribution
from repro.core.loss import LossParts, ShredderLoss
from repro.core.noise_tensor import MultiNoiseTensor, NoiseTensor
from repro.core.pipeline import ShredderPipeline, ShredderReport
from repro.core.sampler import (
    NoiseCollection,
    NoiseSample,
    NoiseStream,
    collect_noise_distribution,
)
from repro.core.schedules import ConstantLambda, DecayOnTarget, LambdaSchedule
from repro.core.snr import (
    in_vivo_privacy,
    in_vivo_privacy_members,
    noise_variance,
    noise_variance_members,
    signal_power,
    snr,
)
from repro.core.split import SplitInferenceModel
from repro.core.trainer import NoiseTrainer, NoiseTrainingHistory, NoiseTrainingResult

__all__ = [
    "ActivationCache",
    "ConstantLambda",
    "DecayOnTarget",
    "DistributionSummary",
    "FittedNoiseDistribution",
    "MultiNoiseTensor",
    "OperatingPointSearch",
    "SearchProbe",
    "SearchResult",
    "accuracy_budget_evaluator",
    "activation_sensitivity",
    "laplace_mechanism_noise",
    "matched_variance_noise",
    "require_converged",
    "LambdaSchedule",
    "LossParts",
    "NoiseCollection",
    "NoiseStream",
    "NoiseSample",
    "NoiseTensor",
    "NoiseTrainer",
    "NoiseTrainingHistory",
    "NoiseTrainingResult",
    "ShredderLoss",
    "ShredderPipeline",
    "ShredderReport",
    "SplitInferenceModel",
    "clear_activation_cache",
    "collect_noise_distribution",
    "get_activation_cache",
    "in_vivo_privacy",
    "in_vivo_privacy_members",
    "materialize_activations_cached",
    "noise_variance",
    "noise_variance_members",
    "signal_power",
    "snr",
]
