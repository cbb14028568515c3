"""Declarative model builders for the seven text-classification architectures.

Every model maps an encoded batch to class probabilities. The two
recurrent-convolutional variants feed bidirectional GRU context (and,
for rcnn-hw, highway blocks) into a window-1 convolution with
max-over-time pooling; the rest are the comparison baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable

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
    check_model_name(name)
    d = base.to_dict()
    if name in ABLATION_VARIANTS:
        d.update(kind="rcnn-hw", **ABLATION_VARIANTS[name])
    else:
        if name != "rcnn-hw" or base.kind != "rcnn-hw":
            d.update(highway_layers=None, mlp_instead_of_highway=False)  # the kind's default
        d["kind"] = name
    return ModelSpec.from_dict(d)


def check_model_name(name: str) -> None:
    """Raise ConfigError unless ``name`` is a kind or an ablation variant."""
    if name not in KINDS and name not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown model {name!r}; valid: {', '.join([*KINDS, *ABLATION_VARIANTS])}")


class Model:
    """A built architecture: spec, named parameters, and the forward pass."""

    def __init__(self, spec: ModelSpec, blocks: dict):
        self.spec = spec
        self.blocks = blocks
        self.wiring = _architecture(spec)[2]
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
        # cow's bag of words is the embedding's pooled form: one node, [B, D].
        x = L.embed(batch, self.blocks["embedding"], pool=spec.kind == "cow")
        return L.dense_softmax(self.wiring(self.blocks, x, batch), self.blocks["head"])


def _architecture(spec: ModelSpec) -> tuple[dict, int, Callable]:
    """The kind's blocks between the embedding and the head, as in ``_blocks``,
    the width they hand the head, and their wiring ``(blocks, x, batch) -> [B,
    width]``. A wiring looks each layer up as ``L.<name>`` when it runs, so a
    layer function swapped in after the model is built is the one it calls."""
    e, h, f = spec.embed_dim, spec.hidden_dim, spec.num_filters
    if spec.kind == "cow":
        return {}, e, lambda blocks, x, batch: x
    if spec.kind == "lstm-avg":
        def wiring(blocks, x, batch):
            return L.mean_over_time(L.lstm_scan(x, blocks["lstm"], "forward"), batch.lengths)
        return {"lstm": (L.LstmParams, (e, h))}, h, wiring
    if spec.kind == "bilstm-avg":
        def wiring(blocks, x, batch):
            states = [L.lstm_scan(x, blocks["lstm_fwd"], "forward"), L.lstm_scan(x, blocks["lstm_bwd"], "backward")]
            return L.mean_over_time(L.concat(states, axis=2), batch.lengths)
        return dict.fromkeys(("lstm_fwd", "lstm_bwd"), (L.LstmParams, (e, h))), 2 * h, wiring
    if spec.kind == "cnn":
        def wiring(blocks, x, batch):
            return L.concat([L.conv1d_forward(x, conv, pool=True) for conv in blocks["convs"]], axis=1)
        return {"convs": [(L.ConvParams, (w, e, f)) for w in spec.cnn_windows]}, len(spec.cnn_windows) * f, wiring
    if spec.kind == "cnn-lstm":
        def wiring(blocks, x, batch):
            states = L.lstm_scan(L.conv1d_forward(x, blocks["conv"]), blocks["lstm"], "forward")
            return L.mean_over_time(states, np.full(batch.size, states.shape[1], dtype=np.int64))
        return {"conv": (L.ConvParams, (spec.cnn_lstm_window, e, f)), "lstm": (L.LstmParams, (f, h))}, h, wiring

    def wiring(blocks, x, batch):  # rcnn, and rcnn-hw with its highway stack or mlp block
        context = L.birnn_context(x, blocks["gru_fwd"], blocks["gru_bwd"])
        for hw in blocks.get("highway", []):
            context = L.highway_forward(context, hw)
        if "mlp" in blocks:
            context = L.dense_relu_positions(context, blocks["mlp"])
        return L.conv1d_forward(context, blocks["conv"], pool=True)
    d = spec.context_dim
    plan = dict.fromkeys(("gru_fwd", "gru_bwd"), (L.GruParams, (e, h)))
    if spec.highway_layers:
        plan["highway"] = [(L.HighwayParams, (d,))] * spec.highway_layers
    if spec.mlp_instead_of_highway:
        plan["mlp"] = (L.DenseParams, (d, d))
    return {**plan, "conv": (L.ConvParams, (1, d, f))}, f, wiring


def _blocks(spec: ModelSpec) -> dict:
    """Each block's container class and ``create`` arguments, in draw order: the
    embedding, the kind's blocks, the head. A list is a numbered stack (``convs0``)."""
    spec.validate()
    plan, width, _wiring = _architecture(spec)
    embedding, head = (L.EmbeddingParams, (spec.vocab_size, spec.embed_dim)), (L.DenseParams, (width, spec.num_classes))
    return {"embedding": embedding, **plan, "head": head}


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
