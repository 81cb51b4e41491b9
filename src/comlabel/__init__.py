"""comlabel: multi-label learning from single complementary labels.

The package covers the full pipeline: corrupting fully labeled data into
complementary labels, estimating the class-transition matrix from candidate
labels with a correlation correction, training linear classifiers through the
transition-composed losses, evaluating with the standard multi-label
criteria, and verifying the underlying identities and bounds numerically on
small label spaces.
"""

from .dataset import (
    ComplementaryDataset,
    GenerativeSpec,
    MultiLabelDataset,
    kfold_split,
    normalize_features,
    parse_multilabel_file,
    preprocess_topk_labels,
    sample_from_generative,
    write_multilabel_file,
)
from .complementary import CorruptionRecord, attach_relevant_subset, corrupt_biased, corrupt_uniform
from .transition import (
    check_invertible,
    correct_and_normalize,
    correlation_matrix,
    estimate_initial_S,
    estimate_transition,
    uniform_transition,
)
from .model import LinearModel, forward, init_linear, predict_labels
from .loss import batch_objective, gradient_check, score_objective
from .metrics import MetricsReport, evaluate_all
from .optim import TrainConfig, adam_step, train_cl_predictor, train_clrl, train_mlcl, train_supervised
from .experiment import AggregateReport, RunConfig, run_ablation, run_clrl, run_cv, run_theory, sweep_beta

__version__ = "0.1.0"
