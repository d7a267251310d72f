"""Hybrid bidirectional-GRU + LSTM sentiment classifier, built from scratch.

The package is organized as:

- text_pipeline: ingestion, cleaning, vocabulary, encoding, balancing, splits
- tensor_math: float64 kernels and seeded initialization
- layers: the batched, masked GRU/LSTM engine: forward math, analytic BPTT,
  predict_proba
- training: BCE loss, Adam, epoch loop with early stopping, checkpoints
- evaluation: confusion metrics, percent loss, chi-square model comparison
- cli: `opinionminer train|evaluate|predict|compare`
"""

from .evaluation import (
    ChiSquareResult,
    ClassificationReport,
    ConfusionCounts,
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
    gru_cell_forward,
    init_model_params,
    lstm_step,
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
    bce_grad,
    bce_loss,
    fit,
    load_checkpoint,
    make_batches,
    save_checkpoint,
    train_epoch,
)

__version__ = "0.1.0"
