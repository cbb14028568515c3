"""rcnnlab: text classification with recurrent-convolutional highway networks.

Everything runs on the package's own reverse-mode autodiff engine; numpy
supplies dense float64 array arithmetic underneath.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Variable, backward, finite_diff_check  # noqa: E402,F401
from .data import (  # noqa: E402,F401
    EncodedBatch,
    TextDataset,
    Vocabulary,
    batches,
    build_vocab,
    encode,
    gen_keyword_task,
    gen_longrange_task,
    gen_order_task,
    load_imdb_dir,
    load_tsv,
    tokenize,
)
from .models import KINDS, Model, ModelSpec, build_model, count_params, resolve_model  # noqa: E402,F401
from .harness import (  # noqa: E402,F401
    RunReport,
    TrainConfig,
    evaluate,
    load_checkpoint,
    run_model_comparison,
    run_seqlen_sweep,
    save_checkpoint,
    train,
)
from .optim import Adadelta, Adam, RmsProp, clip_gradients, cross_entropy_loss  # noqa: E402,F401
