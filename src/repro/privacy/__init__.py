"""``repro.privacy`` — information-theoretic estimators (the ITE substitute).

kNN entropy/MI estimators (Kozachenko-Leonenko, KSG), closed-form Gaussian
references for validation, PCA pre-reduction, and the leakage measurement
pipeline used by every experiment.
"""

from repro.privacy.binned import (
    binned_mutual_information,
    joint_code,
    plugin_entropy_bits,
    quantile_bin,
)
from repro.privacy.bootstrap import MIInterval, subsampled_mi_interval
from repro.privacy.bounds import (
    LeakageBracket,
    gaussian_channel_bracket,
    gaussian_entropy_bits,
    laplace_channel_bracket,
    laplace_entropy_bits,
    max_entropy_upper_bound_bits,
    saddle_point_lower_bound_bits,
    snr_privacy_curve,
)
from repro.privacy.entropy import (
    gaussian_entropy,
    histogram_entropy,
    kl_entropy,
    kth_neighbor_distances,
    unit_ball_log_volume,
)
from repro.privacy.gaussian import (
    awgn_capacity_bits,
    awgn_vector_mi_bits,
    correlated_gaussian_mi_bits,
    mi_to_ex_vivo_privacy,
    multivariate_gaussian_mi_bits,
    snr_to_in_vivo_privacy,
)
from repro.privacy.metrics import (
    LeakageEstimate,
    estimate_leakage,
    information_loss_bits,
    information_loss_percent,
)
from repro.privacy.mutual_information import (
    discrete_mutual_information,
    entropy_sum_mi,
    ksg_mutual_information,
)
from repro.privacy.reduction import PCAReducer, flatten_batch, randomized_svd
from repro.privacy.shuffle_eval import (
    ShuffleLeakageReport,
    WireBatch,
    amplified_epsilon,
    evaluate_shuffle_leakage,
    sweep_mixing_tradeoff,
    tap_wire_batches,
)

__all__ = [
    "LeakageEstimate",
    "LeakageBracket",
    "MIInterval",
    "ShuffleLeakageReport",
    "WireBatch",
    "amplified_epsilon",
    "evaluate_shuffle_leakage",
    "sweep_mixing_tradeoff",
    "tap_wire_batches",
    "gaussian_channel_bracket",
    "gaussian_entropy_bits",
    "laplace_channel_bracket",
    "laplace_entropy_bits",
    "max_entropy_upper_bound_bits",
    "saddle_point_lower_bound_bits",
    "snr_privacy_curve",
    "PCAReducer",
    "randomized_svd",
    "binned_mutual_information",
    "joint_code",
    "plugin_entropy_bits",
    "quantile_bin",
    "subsampled_mi_interval",
    "awgn_capacity_bits",
    "awgn_vector_mi_bits",
    "correlated_gaussian_mi_bits",
    "discrete_mutual_information",
    "entropy_sum_mi",
    "estimate_leakage",
    "flatten_batch",
    "gaussian_entropy",
    "histogram_entropy",
    "information_loss_bits",
    "information_loss_percent",
    "kl_entropy",
    "ksg_mutual_information",
    "kth_neighbor_distances",
    "mi_to_ex_vivo_privacy",
    "multivariate_gaussian_mi_bits",
    "snr_to_in_vivo_privacy",
    "unit_ball_log_volume",
]
