"""Multi-stage fully convolutional boundary detection, on plain numpy.

The package is self-contained: a small reverse-mode autodiff core, the
convolutional ops built on it, stacked boundary-detection stages that feed
their side outputs back in with the image, class-balanced loss, two-phase
training, Rand-score evaluation, and a synthetic cell-image corpus for
desk-scale experiments.
"""

from .autodiff import Tensor, grad_check, gradients
from .checkpoint import load_checkpoint, network_from_checkpoint, save_checkpoint
from .config import DataParams, EvalParams, RunConfig, load_run_config
from .data import Sample, augment36, boundary_from_segments, load_dataset, save_dataset, synth_corpus, synth_generate
from .evaluation import (
    LabelImage,
    RandScores,
    best_fscore_sweep,
    contingency,
    rand_scores,
    segment_from_boundary,
)
from .loss import BoundaryLabels, class_balance_beta, fuse, side_loss, total_loss
from .network import M2FCN, NetworkConfig, build_network
from .ops import concat_channels, conv2d, maxpool2, relu, sigmoid, upsample
from .subnet import LevelSpec, SubNet, SubNetConfig, receptive_field
from .training import SGD, TrainResult, TrainSchedule, train, train_pipeline

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "grad_check",
    "gradients",
    "conv2d",
    "maxpool2",
    "upsample",
    "concat_channels",
    "relu",
    "sigmoid",
    "BoundaryLabels",
    "class_balance_beta",
    "side_loss",
    "fuse",
    "total_loss",
    "LevelSpec",
    "SubNetConfig",
    "SubNet",
    "receptive_field",
    "NetworkConfig",
    "M2FCN",
    "build_network",
    "SGD",
    "TrainSchedule",
    "TrainResult",
    "train",
    "train_pipeline",
    "save_checkpoint",
    "load_checkpoint",
    "network_from_checkpoint",
    "LabelImage",
    "RandScores",
    "segment_from_boundary",
    "contingency",
    "rand_scores",
    "best_fscore_sweep",
    "Sample",
    "boundary_from_segments",
    "augment36",
    "synth_generate",
    "synth_corpus",
    "save_dataset",
    "load_dataset",
    "RunConfig",
    "DataParams",
    "EvalParams",
    "load_run_config",
    "__version__",
]
