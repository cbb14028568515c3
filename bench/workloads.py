"""The benchmark's workloads and the inputs each one generates from a seed."""

from __future__ import annotations

from dataclasses import dataclass

from rcnnlab import data
from rcnnlab.models import ModelSpec

SENTINEL_WINDOW = (200, 400)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    task: str  # "keyword" or "longrange"
    filler_types: int  # distinct filler tokens the task generator draws from
    seq_len: int
    n_train: int  # a multiple of the batch size (32), so every training step is a full batch
    n_val: int
    n_test: int  # a multiple of the evaluation batch, so every eval batch is full
    epochs: int
    lr: float
    accuracy_floor: float
    embed_dim: int = 16
    hidden_dim: int = 8
    num_filters: int = 32

    @property
    def val_fraction(self) -> float:
        return self.n_val / (self.n_train + self.n_val)

    def generate(self, seed: int) -> tuple[data.TextDataset, data.TextDataset]:
        """(train+val pool, held-out test split); the same seed gives the same texts."""
        n = self.n_train + self.n_val + self.n_test
        if self.task == "longrange":
            ds = data.gen_longrange_task(n, SENTINEL_WINDOW, self.seq_len, seed=seed, vocab_size=self.filler_types)
        else:
            ds = data.gen_keyword_task(n, vocab_size=self.filler_types, seq_len=self.seq_len, seed=seed)
        pool = self.n_train + self.n_val
        return data.TextDataset(ds.examples[:pool], "pool"), data.TextDataset(ds.examples[pool:], "test")

    def spec(self, vocab_size: int) -> ModelSpec:
        return ModelSpec(
            kind=self.kind, vocab_size=vocab_size, seq_len=self.seq_len, embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim, num_filters=self.num_filters,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rcnn-hw-long",
            why="the paper's long-text case: two GRU scans over T=500 are most of a step, so fused scans and tape overhead show here",
            kind="rcnn-hw", task="longrange", seq_len=500, filler_types=20,
            n_train=640, n_val=64, n_test=128, epochs=2, lr=3e-3, accuracy_floor=0.9,
        ),
        Workload(
            name="cnn-paper",
            why="paper-size CNN: the per-position convolution loop is most of a step and nothing recurs, so a conv change shows and a scan change must not",
            kind="cnn", task="keyword", seq_len=200, embed_dim=50, num_filters=256, filler_types=20,
            n_train=352, n_val=64, n_test=256, epochs=2, lr=3e-3, accuracy_floor=0.9,
        ),
        Workload(
            name="cow-vocab20k",
            why="no scan and no convolution: the RMSprop update of a 20k-row embedding and its scatter dominate, so encoding and vocabulary build stand out",
            kind="cow", task="keyword", seq_len=200, embed_dim=50, filler_types=30000,
            n_train=6400, n_val=640, n_test=512, epochs=2, lr=1e-3, accuracy_floor=0.7,
        ),
    )
}
