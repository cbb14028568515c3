"""Data pipeline tests: tokenizer, vocabulary, encoding, loaders, generators."""

import os

import numpy as np
import pytest

from rcnnlab import data as D
from rcnnlab.errors import ConfigError, ContractError, DataError


class TestTokenize:
    def test_punctuation_split(self):
        assert D.tokenize("I loved it!") == ["i", "loved", "it", "!"]

    def test_html_break_markup(self):
        assert D.tokenize("Good<br /><br />bad") == ["good", "bad"]
        assert D.tokenize("a<br>b<br/>c") == ["a", "b", "c"]

    def test_idempotent_on_joined_output(self):
        text = "Wasn't that GREAT?! <br />Truly... one-of-a-kind."
        tokens = D.tokenize(text)
        assert D.tokenize(" ".join(tokens)) == tokens

    def test_empty(self):
        assert D.tokenize("") == []


class TestTextDataset:
    def test_non_binary_label_rejected(self):
        with pytest.raises(DataError, match="label"):
            D.TextDataset([("fine text", 2)])

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            D.TextDataset([("", 1)])


class TestVocabulary:
    def test_frequency_then_lexicographic_order(self):
        ds = D.TextDataset([("a a b", 1)])
        vocab = D.build_vocab(ds, min_freq=1)
        assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "a": 2, "b": 3}

    def test_ranking_breaks_frequency_ties_lexicographically_across_texts(self):
        """Counts add up over every text, and tokens of equal count rank by
        their text, not by where they first appear; a cap cuts inside a tie."""
        ds = D.TextDataset([("zeta Beta beta", 0), ("alpha zeta gamma omega", 1),
                            ("gamma beta alpha delta", 0), ("delta", 1)])
        vocab = D.build_vocab(ds, min_freq=2)
        assert vocab.id_to_token == ["<pad>", "<unk>", "beta", "alpha", "delta", "gamma", "zeta"]
        assert D.build_vocab(ds, max_size=5, min_freq=2).id_to_token == vocab.id_to_token[:5]
        assert D.build_vocab(ds, min_freq=1).id_to_token[-1] == "omega"

    def test_min_freq_drops_rare(self):
        ds = D.TextDataset([("a a b", 1)])
        vocab = D.build_vocab(ds, min_freq=2)
        assert "b" not in vocab.token_to_id
        ids, _ = D.encode("b", vocab, 3)
        assert ids[0] == D.UNK_ID

    def test_deterministic_rebuild(self):
        ds = D.TextDataset([("the cat sat on the mat", 0), ("the dog sat", 1)])
        assert D.build_vocab(ds, min_freq=1) == D.build_vocab(ds, min_freq=1)

    def test_max_size_truncates(self):
        ds = D.TextDataset([("a b c d e f", 0)])
        vocab = D.build_vocab(ds, max_size=4, min_freq=1)
        assert len(vocab) == 4

    @pytest.mark.parametrize("max_size", [0, 1])
    def test_cap_below_reserved_ids_rejected(self, max_size):
        ds = D.TextDataset([("a b c d e f", 0)])
        with pytest.raises(ConfigError, match=f"got {max_size}"):
            D.build_vocab(ds, max_size=max_size, min_freq=1)

    @pytest.mark.parametrize("min_freq", [0, -3])
    def test_min_freq_below_one_rejected(self, min_freq):
        ds = D.TextDataset([("a b c d e f", 0)])
        with pytest.raises(ConfigError, match=f"got {min_freq}"):
            D.build_vocab(ds, min_freq=min_freq)

    def test_empty_corpus(self):
        with pytest.raises(DataError):
            D.build_vocab(D.TextDataset([]))

    def test_file_round_trip(self, tmp_path):
        ds = D.TextDataset([("alpha beta gamma alpha", 1)])
        vocab = D.build_vocab(ds, min_freq=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert D.Vocabulary.load(path) == vocab

    def test_file_line_number_encodes_id(self, tmp_path):
        ds = D.TextDataset([("alpha beta gamma alpha", 1)])
        vocab = D.build_vocab(ds, min_freq=1)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        # token on line k (1-based) carries id k + 1 after the two reserved ids
        for k, token in enumerate(lines, start=1):
            assert vocab.token_to_id[token] == k + 1

    def test_file_with_byte_order_mark_loads_the_same_ids(self, tmp_path):
        (tmp_path / "plain.txt").write_text("good\nbad\n", encoding="utf-8")
        (tmp_path / "bom.txt").write_text("good\nbad\n", encoding="utf-8-sig")
        plain, bom = D.Vocabulary.load(tmp_path / "plain.txt"), D.Vocabulary.load(tmp_path / "bom.txt")
        assert bom == plain
        assert bom.id_to_token == ["<pad>", "<unk>", "good", "bad"]
        assert list(D.encode("good bad", bom, 2)[0]) == [2, 3]


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return D.build_vocab(D.TextDataset([("aa bb cc dd ee ff gg", 0)]), min_freq=1)

    def test_padding(self, vocab):
        ids, length = D.encode("aa bb cc", vocab, 5)
        assert length == 3
        assert list(ids[3:]) == [D.PAD_ID, D.PAD_ID]

    def test_head_truncation(self, vocab):
        ids, length = D.encode("aa bb cc dd ee ff gg", vocab, 5)
        assert length == 5
        expected = [vocab.token_to_id[t] for t in ["aa", "bb", "cc", "dd", "ee"]]
        assert list(ids) == expected

    def test_unknown_token(self, vocab):
        ids, _ = D.encode("zz", vocab, 2)
        assert ids[0] == D.UNK_ID

    def test_empty_text_degenerate_rule(self, vocab):
        ids, length = D.encode("", vocab, 4)
        assert length == 1
        assert list(ids) == [D.UNK_ID, D.PAD_ID, D.PAD_ID, D.PAD_ID]

    def test_round_trip_of_short_in_vocab_text(self, vocab):
        text = "cc aa ff"
        ids, length = D.encode(text, vocab, 6)
        decoded = [vocab.id_to_token[i] for i in ids[:length]]
        assert decoded == D.tokenize(text)


class TestLoaders:
    def make_imdb(self, tmp_path):
        for split in ("train", "test"):
            for sub in ("pos", "neg"):
                (tmp_path / split / sub).mkdir(parents=True)
        (tmp_path / "train/pos/0_a.txt").write_text("great film", encoding="utf-8")
        (tmp_path / "train/pos/1_b.txt").write_text("loved it", encoding="utf-8")
        (tmp_path / "train/neg/0_c.txt").write_text("dull and slow", encoding="utf-8")
        (tmp_path / "test/pos/0_d.txt").write_text("fine", encoding="utf-8")
        (tmp_path / "test/neg/0_e.txt").write_text("bad", encoding="utf-8")
        return tmp_path

    def test_labels_in_sorted_order(self, tmp_path):
        train, test = D.load_imdb_dir(self.make_imdb(tmp_path))
        assert [label for _t, label in train.examples] == [1, 1, 0]
        assert len(test) == 2

    def test_missing_directory_names_path(self, tmp_path):
        (tmp_path / "train" / "pos").mkdir(parents=True)
        with pytest.raises(DataError, match="neg"):
            D.load_imdb_dir(tmp_path)

    def test_non_utf8_names_file(self, tmp_path):
        root = self.make_imdb(tmp_path)
        bad = root / "train/pos/2_z.txt"
        bad.write_bytes(b"\xff\xfe broken")
        with pytest.raises(DataError, match="2_z"):
            D.load_imdb_dir(root)

    def test_tsv_round_trip(self, tmp_path):
        path = tmp_path / "toy.tsv"
        path.write_text("1\tgreat movie\n0\tawful\n\n", encoding="utf-8")
        ds = D.load_tsv(path)
        assert ds.examples == [("great movie", 1), ("awful", 0)]

    def test_tsv_malformed_label(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("2\tx\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            D.load_tsv(path)

    def test_tsv_empty_file_loads_empty(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        ds = D.load_tsv(path)
        assert len(ds) == 0

    def test_tsv_with_byte_order_mark_loads_the_same_examples(self, tmp_path):
        (tmp_path / "plain.tsv").write_text("1\tgood film\n0\tbad\n", encoding="utf-8")
        (tmp_path / "bom.tsv").write_text("1\tgood film\n0\tbad\n", encoding="utf-8-sig")
        assert D.load_tsv(tmp_path / "bom.tsv").examples == D.load_tsv(tmp_path / "plain.tsv").examples
        assert D.load_tsv(tmp_path / "bom.tsv").examples == [("good film", 1), ("bad", 0)]

    def test_review_file_with_byte_order_mark_loads_the_same_examples(self, tmp_path):
        plain = self.make_imdb(tmp_path / "plain")
        bom = self.make_imdb(tmp_path / "bom")
        (bom / "train/pos/0_a.txt").write_text("great film", encoding="utf-8-sig")
        assert D.load_imdb_dir(bom) == D.load_imdb_dir(plain)
        vocab = D.build_vocab(D.load_imdb_dir(bom)[0], min_freq=1)
        assert "\ufeffgreat" not in vocab.token_to_id and "great" in vocab.token_to_id

    def test_write_then_load(self, tmp_path):
        ds = D.gen_keyword_task(20, seed=3)
        path = tmp_path / "gen.tsv"
        D.write_tsv(ds, path)
        assert D.load_tsv(path).examples == ds.examples


class TestGenerators:
    def test_keyword_sentinel_defines_label(self):
        ds = D.gen_keyword_task(400, seed=0)
        for text, label in ds.examples:
            assert (D.KEYWORD_SENTINEL in text.split()) == (label == 1)

    def test_keyword_balance(self):
        ds = D.gen_keyword_task(2000, seed=1)
        positives = sum(label for _t, label in ds.examples)
        assert abs(positives / 2000 - 0.5) < 0.05

    def test_keyword_seed_reproducible(self):
        assert D.gen_keyword_task(50, seed=7).examples == D.gen_keyword_task(50, seed=7).examples

    def test_order_label_is_precedence(self):
        ds = D.gen_order_task(400, seed=2)
        for text, label in ds.examples:
            tokens = text.split()
            a, b = tokens.index(D.ORDER_SENTINEL_A), tokens.index(D.ORDER_SENTINEL_B)
            assert (a < b) == (label == 1)

    def test_order_sentinels_exactly_once_each(self):
        ds = D.gen_order_task(200, seed=3)
        for text, _label in ds.examples:
            tokens = text.split()
            assert tokens.count(D.ORDER_SENTINEL_A) == 1
            assert tokens.count(D.ORDER_SENTINEL_B) == 1

    def test_order_class_balanced(self):
        ds = D.gen_order_task(100, seed=4)
        assert sum(label for _t, label in ds.examples) == 50

    def test_longrange_sentinel_confined_to_window(self):
        ds = D.gen_longrange_task(200, (50, 80), seq_len=100, seed=5)
        for text, label in ds.examples:
            tokens = text.split()
            if label == 1:
                pos = tokens.index(D.LONGRANGE_SENTINEL)
                assert 50 <= pos < 80
            else:
                assert D.LONGRANGE_SENTINEL not in tokens

    def test_longrange_truncation_drops_signal(self):
        ds = D.gen_longrange_task(100, (200, 400), seq_len=500, seed=6)
        vocab = D.build_vocab(ds, min_freq=1)
        sig = vocab.token_to_id[D.LONGRANGE_SENTINEL]
        assert sig != D.UNK_ID
        short = D.encode_dataset(ds, vocab, 100)
        assert not (short.ids == sig).any()
        full = D.encode_dataset(ds, vocab, 500)
        has_sig = (full.ids == sig).any(axis=1)
        np.testing.assert_array_equal(has_sig, full.labels == 1)

    @pytest.mark.parametrize("size", [{"n": 0}, {"vocab_size": 0}], ids=["n0", "vocab0"])
    @pytest.mark.parametrize("gen,extra", [
        (D.gen_keyword_task, {}),
        (D.gen_order_task, {}),
        (D.gen_longrange_task, {"signal_window": (2, 5)}),
    ], ids=["keyword", "order", "longrange"])
    def test_empty_task_or_vocabulary_rejected(self, gen, extra, size):
        with pytest.raises(ConfigError):
            gen(**{"n": 10, "vocab_size": 100, "seq_len": 10, **extra, **size})

    @pytest.mark.parametrize("gen,extra", [
        (D.gen_keyword_task, {}),
        (D.gen_order_task, {}),
        (D.gen_longrange_task, {"signal_window": (2, 5)}),
    ], ids=["keyword", "order", "longrange"])
    def test_negative_seed_rejected(self, gen, extra):
        with pytest.raises(ConfigError, match="seed"):
            gen(n=10, seq_len=10, seed=-1, **extra)

    def test_longrange_invalid_window(self):
        with pytest.raises(ConfigError):
            D.gen_longrange_task(10, (90, 80), seq_len=100, seed=0)


@pytest.mark.skipif(
    "RCNNLAB_IMDB_DIR" not in os.environ,
    reason="full review dataset checks need RCNNLAB_IMDB_DIR",
)
class TestFullImdbDataset:
    def test_train_split_size(self):
        train, _test = D.load_imdb_dir(os.environ["RCNNLAB_IMDB_DIR"])
        assert len(train) == 25000

    def test_mean_train_token_length(self):
        train, _test = D.load_imdb_dir(os.environ["RCNNLAB_IMDB_DIR"])
        mean_len = np.mean([len(D.tokenize(text)) for text, _label in train.examples])
        assert abs(mean_len - 268) <= 10  # tokenizer-dependent tolerance


class TestBatches:
    @pytest.fixture
    def setup(self):
        ds = D.gen_keyword_task(100, seed=8)
        vocab = D.build_vocab(ds, min_freq=1)
        return ds, vocab

    def test_batch_sizes(self, setup):
        ds, vocab = setup
        sizes = [b.size for b in D.batches(D.encode_dataset(ds, vocab, 50), batch_size=32, shuffle_seed=0)]
        assert sizes == [32, 32, 32, 4]

    def test_same_seed_same_composition(self, setup):
        ds, vocab = setup
        a = [b.ids for b in D.batches(D.encode_dataset(ds, vocab, 50), shuffle_seed=5)]
        b = [b.ids for b in D.batches(D.encode_dataset(ds, vocab, 50), shuffle_seed=5)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epoch_covers_dataset_exactly_once(self, setup):
        ds, vocab = setup
        whole = D.encode_dataset(ds, vocab, 50)
        seen = np.concatenate([b.ids for b in D.batches(D.encode_dataset(ds, vocab, 50), shuffle_seed=9)])
        assert seen.shape == whole.ids.shape
        order = np.lexsort(seen.T)
        base = np.lexsort(whole.ids.T)
        np.testing.assert_array_equal(seen[order], whole.ids[base])

    def test_empty_dataset_rejected(self, setup):
        _ds, vocab = setup
        with pytest.raises(ContractError):
            list(D.batches(D.encode_dataset(D.TextDataset([]), vocab, 10)))

    def test_encoded_batch_invariants(self, setup):
        ds, vocab = setup
        for b in D.batches(D.encode_dataset(ds, vocab, 50), shuffle_seed=1):
            assert np.all(b.lengths >= 1) and np.all(b.lengths <= 50)
            mask = np.arange(50)[None, :] >= b.lengths[:, None]
            assert np.all(b.ids[mask] == D.PAD_ID)
