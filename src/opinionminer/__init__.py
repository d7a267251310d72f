"""Hybrid bidirectional-GRU + LSTM sentiment classifier, built from scratch.

The package is organized as:

- text_pipeline: ingestion, cleaning, vocabulary, encoding, balancing, splits
- tensor_math: float64 kernels and seeded initialization
- layers: the batched, packed GRU/LSTM engine: forward math, analytic BPTT,
  predict_proba; its stacked scans are the only copy of the cell equations
- training: Adam, epoch loop with early stopping, checkpoints
- evaluation: BCE loss and the one scorer of a labelled set (confusion
  counts and mean BCE), percent loss, chi-square model comparison
- cli: `opinionminer train|evaluate|predict|compare`
"""

from .evaluation import (
    ChiSquareResult,
    ClassificationReport,
    ConfusionCounts,
    bce_grad,
    bce_loss,
    chi_square_test,
    classification_report,
    confusion_matrix,
    evaluate_model,
)
from .layers import (
    ModelParams,
    classify,
    dense_sigmoid,
    embed_lookup,
    init_model_params,
    model_backward,
    model_forward,
    predict_proba,
)
from .text_pipeline import (
    LabeledCorpus,
    Review,
    TokenSequence,
    Vocabulary,
    balance_classes,
    build_vocabulary,
    clean_text,
    encode_sequence,
    load_dataset,
    stratified_split,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainingHistory,
    adam_step,
    fit,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    train_epoch,
)

__version__ = "0.1.0"
