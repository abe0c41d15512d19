"""From-scratch NumPy deep-learning substrate.

Provides everything the paper's *offline training* stage needs — embedding,
LSTM and dense layers with exact gradients, losses, optimisers, a training
loop with convergence tracking (with bit-exact fused training kernels and a
content-addressed model cache), metrics, and the text-file weight export the
CSD host program ingests.
"""

from repro.nn.cache import ModelCache
from repro.nn.dense import Dense
from repro.nn.embedding import Embedding
from repro.nn.kernels import (
    DEFAULT_TRAIN_BACKEND,
    available_training_backends,
    resolve_training_backend,
)
from repro.nn.lstm import LSTM
from repro.nn.metrics import (
    ConfusionMatrix,
    auc,
    classification_report,
    confusion_matrix,
    roc_curve,
    threshold_sweep,
)
from repro.nn.model import (
    PAPER_EMBEDDING_DIM,
    PAPER_HIDDEN_SIZE,
    PAPER_VOCAB_SIZE,
    SequenceClassifier,
)
from repro.nn.optimizers import SGD, Adam, clip_gradients
from repro.nn.serialization import dump_weights, load_into_model, load_weights
from repro.nn.trainer import ConvergenceHistory, EpochRecord, Trainer, TrainingConfig

__all__ = [
    "Adam",
    "ConfusionMatrix",
    "ConvergenceHistory",
    "DEFAULT_TRAIN_BACKEND",
    "Dense",
    "Embedding",
    "EpochRecord",
    "LSTM",
    "ModelCache",
    "PAPER_EMBEDDING_DIM",
    "PAPER_HIDDEN_SIZE",
    "PAPER_VOCAB_SIZE",
    "SGD",
    "SequenceClassifier",
    "Trainer",
    "TrainingConfig",
    "auc",
    "available_training_backends",
    "classification_report",
    "clip_gradients",
    "confusion_matrix",
    "dump_weights",
    "resolve_training_backend",
    "load_into_model",
    "load_weights",
    "roc_curve",
    "threshold_sweep",
]
