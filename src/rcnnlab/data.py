"""Text ingestion: tokenization, vocabulary, encoding, loaders, synthetic tasks.

All loaders and generators are deterministic given identical inputs and
seeds. Encoded sequences use a fixed length: longer texts keep their first
``seq_len`` tokens, shorter ones are post-padded with PAD (id 0).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, DataError

PAD_ID = 0
UNK_ID = 1

_BR_MARKUP = re.compile(r"<br\s*/?>", re.IGNORECASE)
_TOKEN = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase, drop HTML line breaks, split words from punctuation."""
    return _TOKEN.findall(_BR_MARKUP.sub(" ", text.lower()))


@dataclass
class TextDataset:
    """Raw (text, binary label) examples for one split."""

    examples: list[tuple[str, int]]
    split: str = ""

    def __post_init__(self):
        for i, (text, label) in enumerate(self.examples):
            if label not in (0, 1):
                raise DataError(f"example {i}: label must be 0 or 1, got {label!r}")
            if not text:
                raise DataError(f"example {i}: empty text")

    def __len__(self) -> int:
        return len(self.examples)

    def subset(self, indices, split: str | None = None) -> "TextDataset":
        return TextDataset([self.examples[i] for i in indices], split or self.split)


class Vocabulary:
    """Token-to-id map with reserved PAD (0) and UNK (1) entries."""

    def __init__(self, content_tokens: list[str]):
        self.id_to_token = ["<pad>", "<unk>"] + list(content_tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.id_to_token == other.id_to_token

    def save(self, path) -> None:
        # One content token per line; line k (1-based) holds id k + 1.
        Path(path).write_text("\n".join(self.id_to_token[2:]) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls([line for line in _read_utf8(Path(path)).split("\n") if line])


def build_vocab(train: TextDataset, max_size: int = 20000, min_freq: int = 2) -> Vocabulary:
    """Frequency-ranked vocabulary from the training split only.

    Ties in frequency break lexicographically; at most ``max_size - 2``
    content tokens survive after the two reserved ids.
    """
    if max_size < 2:
        raise ConfigError(f"vocabulary size cap must be >= 2 for the two reserved ids, got {max_size}")
    if min_freq < 1:
        raise ConfigError(f"minimum token frequency must be >= 1, got {min_freq}")
    if len(train) == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for text, _label in train.examples:
        counts.update(tokenize(text))
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    return Vocabulary(ranked[: max_size - 2])


def encode(text: str, vocab: Vocabulary, seq_len: int) -> tuple[np.ndarray, int]:
    """Fixed-length id sequence plus the true (pre-padding) length; a text with no tokens is one UNK."""
    if seq_len < 1:
        raise ContractError(f"seq_len must be >= 1, got {seq_len}")
    kept = tokenize(text)[:seq_len] or ["<unk>"]  # tokenize never emits "<unk>"; every vocabulary maps it to UNK_ID
    ids = np.full(seq_len, PAD_ID, dtype=np.int64)
    ids[: len(kept)] = np.fromiter(map(vocab.token_to_id.get, kept, repeat(UNK_ID)), np.int64, len(kept))
    return ids, len(kept)


@dataclass
class EncodedBatch:
    """Integer id matrix [batch, seq_len] with true lengths and labels."""

    ids: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.ids.shape[1]


def encode_dataset(dataset: TextDataset, vocab: Vocabulary, seq_len: int) -> EncodedBatch:
    ids = np.empty((len(dataset), seq_len), dtype=np.int64)
    lengths = np.empty(len(dataset), dtype=np.int64)
    labels = np.empty(len(dataset), dtype=np.int64)
    for i, (text, label) in enumerate(dataset.examples):
        ids[i], lengths[i] = encode(text, vocab, seq_len)
        labels[i] = label
    return EncodedBatch(ids, lengths, labels)


def batches(
    encoded: EncodedBatch,
    batch_size: int = 32,
    shuffle_seed: int | None = None,
) -> Iterator[EncodedBatch]:
    """Stream of batches of an encoded dataset, in seeded shuffled order when
    ``shuffle_seed`` is given; the final short batch is emitted as-is."""
    if encoded.size == 0:
        raise ContractError("cannot batch an empty dataset")
    order = np.arange(encoded.size)
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for start in range(0, encoded.size, batch_size):
        pick = order[start : start + batch_size]
        yield EncodedBatch(encoded.ids[pick], encoded.lengths[pick], encoded.labels[pick])


# ---------------------------------------------------------------------------
# Dataset loaders
# ---------------------------------------------------------------------------

def _read_utf8(path: Path) -> str:
    """``path``'s text without a leading byte-order mark; a file that is not
    UTF-8 is a DataError, not a traceback."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"non-UTF-8 file: {path}") from exc


def _read_labeled_dir(split_dir: Path, split: str) -> TextDataset:
    examples: list[tuple[str, int]] = []
    for sub, label in (("pos", 1), ("neg", 0)):
        d = split_dir / sub
        if not d.is_dir():
            raise DataError(f"missing directory: {d}")
        for path in sorted(d.iterdir()):
            if not path.is_file():
                continue
            examples.append((_read_utf8(path), label))
    return TextDataset(examples, split)


def load_imdb_dir(root) -> tuple[TextDataset, TextDataset]:
    """Load a movie-review directory tree: root/{train,test}/{pos,neg}/*.txt."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"missing directory: {root}")
    return _read_labeled_dir(root / "train", "train"), _read_labeled_dir(root / "test", "test")


def load_tsv(path) -> TextDataset:
    """Parse ``label<TAB>text`` lines; blank lines are skipped."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"missing file: {path}")
    examples: list[tuple[str, int]] = []
    for lineno, line in enumerate(_read_utf8(path).split("\n"), start=1):
        if not line.strip():
            continue
        head, tab, text = line.partition("\t")
        if tab != "\t" or head not in ("0", "1") or not text:
            raise DataError(f"{path}: malformed line {lineno}")
        examples.append((text, int(head)))
    return TextDataset(examples, path.stem)


def write_tsv(dataset: TextDataset, path) -> None:
    lines = [f"{label}\t{text}" for text, label in dataset.examples]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------

KEYWORD_SENTINEL = "kw_pos"
ORDER_SENTINEL_A = "ord_a"
ORDER_SENTINEL_B = "ord_b"
LONGRANGE_SENTINEL = "sig"


def _filler_tokens(rng: np.random.Generator, vocab_size: int, n: int) -> list[str]:
    return [f"w{k:03d}" for k in rng.integers(0, vocab_size, size=n)]


def _check_task_size(n: int, vocab_size: int, seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"a task needs seed >= 0, got {seed}")
    if n < 1:
        raise ConfigError(f"a task needs n >= 1 examples, got {n}")
    if vocab_size < 1:
        raise ConfigError(f"a task needs vocab_size >= 1, got {vocab_size}")


def gen_keyword_task(n: int, vocab_size: int = 100, seq_len: int = 50, seed: int = 0) -> TextDataset:
    """Presence detection: label 1 iff the sentinel token occurs anywhere."""
    _check_task_size(n, vocab_size, seed)
    if seq_len < 3:
        raise ConfigError(f"keyword task needs seq_len >= 3, got {seq_len}")
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(n):
        tokens = _filler_tokens(rng, vocab_size, seq_len)
        label = int(rng.integers(0, 2))
        if label == 1:
            tokens[int(rng.integers(0, seq_len))] = KEYWORD_SENTINEL
        examples.append((" ".join(tokens), label))
    return TextDataset(examples, "keyword")


def gen_order_task(n: int, vocab_size: int = 100, seq_len: int = 50, seed: int = 0) -> TextDataset:
    """Order detection: both sentinels occur once; label 1 iff A precedes B.

    The token multiset of an example is independent of its label, so any
    order-free representation carries no signal by construction.
    """
    _check_task_size(n, vocab_size, seed)
    if seq_len < 4:
        raise ConfigError(f"order task needs seq_len >= 4, got {seq_len}")
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        tokens = _filler_tokens(rng, vocab_size, seq_len)
        p, q = sorted(rng.choice(seq_len, size=2, replace=False))
        label = i % 2
        first, second = (ORDER_SENTINEL_A, ORDER_SENTINEL_B) if label == 1 else (ORDER_SENTINEL_B, ORDER_SENTINEL_A)
        tokens[p] = first
        tokens[q] = second
        examples.append((" ".join(tokens), label))
    return TextDataset(examples, "order")


def gen_longrange_task(
    n: int,
    signal_window: tuple[int, int],
    seq_len: int,
    seed: int = 0,
    vocab_size: int = 100,
) -> TextDataset:
    """Presence detection with the sentinel confined to a position window.

    Encoding with a cap below the window truncates the signal away, which
    is what the sequence-length sweep exercises.
    """
    _check_task_size(n, vocab_size, seed)
    lo, hi = signal_window
    if not (0 <= lo < hi <= seq_len):
        raise ConfigError(f"signal window [{lo},{hi}) invalid for seq_len {seq_len}")
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        tokens = _filler_tokens(rng, vocab_size, seq_len)
        label = i % 2
        if label == 1:
            tokens[int(rng.integers(lo, hi))] = LONGRANGE_SENTINEL
        examples.append((" ".join(tokens), label))
    return TextDataset(examples, "longrange")
