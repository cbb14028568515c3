"""Declarative model builders for the seven text-classification architectures.

Every model maps an encoded batch to class probabilities. The two
recurrent-convolutional variants feed bidirectional GRU context (and,
for rcnn-hw, highway blocks) into a window-1 convolution with
max-over-time pooling; the rest are the comparison baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import layers as L
from .autodiff import Variable
from .data import EncodedBatch
from .errors import ConfigError, ContractError

KINDS = ("cow", "lstm-avg", "bilstm-avg", "cnn", "cnn-lstm", "rcnn", "rcnn-hw")
RECURRENT_KINDS = ("lstm-avg", "bilstm-avg", "cnn-lstm", "rcnn", "rcnn-hw")

# Published full-scale IMDB reference accuracies for context columns in
# comparison reports (this package's desk-scale runs are not expected to
# reproduce them).
REFERENCE_ACCURACY = {
    "cow": 0.890,
    "lstm-avg": 0.885,
    "bilstm-avg": 0.881,
    "cnn-lstm": 0.890,
    "cnn": 0.895,
    "rcnn": 0.900,
    "rcnn-hw": 0.903,
    "rcnn-hw-0": 0.900,
    "rcnn-hw-1": 0.903,
    "rcnn-hw-2": 0.903,
    "rcnn-hw-mlp": 0.899,
}

# Table-style ablation variants of the highway model: no highway, one, two,
# and a plain dense+relu block in the same slot.
ABLATION_VARIANTS = {
    "rcnn-hw-0": {"highway_layers": 0, "mlp_instead_of_highway": False},
    "rcnn-hw-1": {"highway_layers": 1, "mlp_instead_of_highway": False},
    "rcnn-hw-2": {"highway_layers": 2, "mlp_instead_of_highway": False},
    "rcnn-hw-mlp": {"highway_layers": 0, "mlp_instead_of_highway": True},
}


@dataclass
class ModelSpec:
    kind: str
    vocab_size: int
    seq_len: int
    embed_dim: int = 50
    hidden_dim: int = 32
    num_filters: int = 256
    cnn_windows: tuple[int, ...] = (3, 4, 5)
    cnn_lstm_window: int = 3
    highway_layers: int | None = None  # None resolves to 1 for rcnn-hw, else 0
    mlp_instead_of_highway: bool = False
    num_classes: int = 2

    def __post_init__(self):
        if self.highway_layers is None:
            self.highway_layers = 1 if (self.kind == "rcnn-hw" and not self.mlp_instead_of_highway) else 0
        self.cnn_windows = tuple(int(w) for w in self.cnn_windows)
        self.validate()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; valid kinds: {', '.join(KINDS)}")
        for name in ("vocab_size", "seq_len", "embed_dim", "hidden_dim", "num_filters", "cnn_lstm_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.highway_layers not in (0, 1, 2):
            raise ConfigError(f"highway_layers must be 0, 1 or 2, got {self.highway_layers}")
        if self.kind != "rcnn-hw" and (self.highway_layers > 0 or self.mlp_instead_of_highway):
            raise ConfigError(f"highway/mlp blocks are only valid for rcnn-hw, not {self.kind!r}")
        if self.mlp_instead_of_highway and self.highway_layers > 0:
            raise ConfigError("choose either highway layers or the mlp block, not both")
        if self.kind == "cnn" and not self.cnn_windows:
            raise ConfigError("cnn needs at least one window size")
        if self.kind == "cnn" and min(self.cnn_windows) < 1:
            raise ConfigError(f"cnn windows must be >= 1, got {self.cnn_windows}")

    @property
    def context_dim(self) -> int:
        """Per-position width after bidirectional context concatenation."""
        return 2 * self.hidden_dim + self.embed_dim

    def to_dict(self) -> dict:
        d = asdict(self)
        d["cnn_windows"] = list(self.cnn_windows)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(**d)


def resolve_model(name: str, base: ModelSpec) -> ModelSpec:
    """The spec that trains model ``name``: a kind or an ablation variant,
    with every other field from ``base``.

    rcnn-hw keeps base's highway/mlp fields when base is itself rcnn-hw (and
    gets the default single highway layer otherwise); other kinds get none;
    ablation names set their own.
    """
    d = base.to_dict()
    if name in ABLATION_VARIANTS:
        d.update(kind="rcnn-hw", **ABLATION_VARIANTS[name])
    elif name in KINDS:
        if name != "rcnn-hw" or base.kind != "rcnn-hw":
            d.update(highway_layers=None, mlp_instead_of_highway=False)  # the kind's default
        d["kind"] = name
    else:
        valid = ", ".join(list(KINDS) + list(ABLATION_VARIANTS))
        raise ConfigError(f"unknown model {name!r}; valid: {valid}")
    return ModelSpec.from_dict(d)


class Model:
    """A built architecture: spec, named parameters, and the forward pass."""

    def __init__(self, spec: ModelSpec, blocks: dict):
        self.spec = spec
        self.blocks = blocks
        self.params: dict[str, Variable] = {}
        for block_name, block in blocks.items():
            for sub_name, sub in ([(f"{block_name}{i}", s) for i, s in enumerate(block)] if isinstance(block, list) else [(block_name, block)]):
                for name, var in sub.named():
                    self.params[f"{sub_name}.{name}"] = var

    def parameters(self) -> list[Variable]:
        return list(self.params.values())

    def num_params(self) -> int:
        return sum(p.value.size for p in self.params.values())

    def forward(self, batch: EncodedBatch) -> Variable:
        """Class probabilities [batch, num_classes]; rows sum to 1."""
        spec = self.spec
        if batch.seq_len != spec.seq_len:
            raise ContractError(f"batch seq_len {batch.seq_len} does not match model seq_len {spec.seq_len}")
        blocks = self.blocks
        x = L.embed(batch, blocks["embedding"])

        if spec.kind == "cow":
            pooled = L.sum_over_time(x, batch.lengths)
        elif spec.kind == "lstm-avg":
            states = L.lstm_scan(x, blocks["lstm"], "forward")
            pooled = L.mean_over_time(states, batch.lengths)
        elif spec.kind == "bilstm-avg":
            fwd = L.lstm_scan(x, blocks["lstm_fwd"], "forward")
            bwd = L.lstm_scan(x, blocks["lstm_bwd"], "backward")
            pooled = L.mean_over_time(L.concat([fwd, bwd], axis=2), batch.lengths)
        elif spec.kind == "cnn":
            pooled = L.concat([L.conv1d_forward(x, conv, pool=True) for conv in blocks["convs"]], axis=1)
        elif spec.kind == "cnn-lstm":
            fmap = L.conv1d_forward(x, blocks["conv"])
            states = L.lstm_scan(fmap, blocks["lstm"], "forward")
            full = np.full(batch.size, states.shape[1], dtype=np.int64)
            pooled = L.mean_over_time(states, full)
        elif spec.kind in ("rcnn", "rcnn-hw"):
            context = L.birnn_context(x, blocks["gru_fwd"], blocks["gru_bwd"])
            if spec.kind == "rcnn-hw":
                for hw in blocks.get("highway", []):
                    context = L.highway_forward(context, hw)
                if spec.mlp_instead_of_highway:
                    context = L.dense_relu_positions(context, blocks["mlp"])
            pooled = L.conv1d_forward(context, blocks["conv"], pool=True)
        else:  # pragma: no cover - validate() forbids this
            raise ConfigError(f"unknown kind {spec.kind!r}")

        head = blocks["head"]
        return L.dense_softmax(pooled, head.w, head.b)


def _blocks(spec: ModelSpec) -> dict:
    """Each block's container class and ``create`` arguments, in draw order.
    A list stands for a numbered stack (``convs0``, ``highway1``)."""
    spec.validate()
    e, h, f = spec.embed_dim, spec.hidden_dim, spec.num_filters
    plan: dict = {"embedding": (L.EmbeddingParams, (spec.vocab_size, e))}

    if spec.kind == "cow":
        head_in = e
    elif spec.kind == "lstm-avg":
        plan["lstm"] = (L.LstmParams, (e, h))
        head_in = h
    elif spec.kind == "bilstm-avg":
        plan["lstm_fwd"] = plan["lstm_bwd"] = (L.LstmParams, (e, h))
        head_in = 2 * h
    elif spec.kind == "cnn":
        plan["convs"] = [(L.ConvParams, (w, e, f)) for w in spec.cnn_windows]
        head_in = len(spec.cnn_windows) * f
    elif spec.kind == "cnn-lstm":
        plan["conv"] = (L.ConvParams, (spec.cnn_lstm_window, e, f))
        plan["lstm"] = (L.LstmParams, (f, h))
        head_in = h
    else:  # rcnn / rcnn-hw
        plan["gru_fwd"] = plan["gru_bwd"] = (L.GruParams, (e, h))
        d = spec.context_dim
        if spec.highway_layers:
            plan["highway"] = [(L.HighwayParams, (d,))] * spec.highway_layers
        if spec.mlp_instead_of_highway:
            plan["mlp"] = (L.DenseParams, (d, d))
        plan["conv"] = (L.ConvParams, (1, d, f))
        head_in = f

    plan["head"] = (L.DenseParams, (head_in, spec.num_classes))
    return plan


def build_model(spec: ModelSpec, rng_seed: int) -> Model:
    """Construct parameters in a fixed order so seed implies bit-identical init."""
    rng = np.random.default_rng(rng_seed)

    def create(cls, args):
        return cls.create(rng, *args)

    blocks = {}
    for name, block in _blocks(spec).items():
        blocks[name] = [create(*b) for b in block] if isinstance(block, list) else create(*block)
    return Model(spec, blocks)


def count_params(spec: ModelSpec) -> int:
    """Trainable-scalar count from the same block plan, allocating nothing."""
    stacks = (block if isinstance(block, list) else [block] for block in _blocks(spec).values())
    return sum(math.prod(shape) for stack in stacks for cls, args in stack for shape in cls.shapes(*args))
