import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oris.corpus
from oris.corpus import (
    Document,
    EmbeddingTable,
    LabelSpace,
    generate_synthetic,
    load_dataset,
    load_word_vectors,
    mean_embeddings,
    surrogate_table,
    tokenize,
    write_synthetic_corpus,
    write_word_vectors,
)
from oris.learner import f1_macro, fit, predict

from helpers import shuffle_stream


@pytest.fixture
def tiny_table(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 2\na 1 0\nb 0 1\n")
    return load_word_vectors(path)


def test_label_space_basics():
    labels = LabelSpace(["x", "y", "z"])
    assert len(labels) == 3
    assert labels.index("y") == 1
    assert labels.name(2) == "z"
    with pytest.raises(ValueError):
        LabelSpace(["only"])
    with pytest.raises(ValueError):
        LabelSpace(["a", "a"])


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Hello, World!  foo-bar") == ["hello", "world", "foo-bar"]
    assert tokenize("...") == []


def test_load_word_vectors_minimal(tiny_table):
    assert tiny_table.dimension == 2
    assert len(tiny_table) == 2
    assert np.array_equal(tiny_table.vectors["a"], [1.0, 0.0])
    assert np.array_equal(tiny_table.vectors["b"], [0.0, 1.0])


def test_load_word_vectors_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\na 1 0\nb 0 1 5\n")
    with pytest.raises(ValueError, match="components"):
        load_word_vectors(path)


def test_load_word_vectors_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_word_vectors(tmp_path / "nope.txt")


def test_load_word_vectors_skips_unparseable_rows(tmp_path, caplog):
    path = tmp_path / "vecs.txt"
    path.write_text("3 2\na 1 0\nbroken x y\nb 0 1\n")
    table = load_word_vectors(path)
    assert len(table) == 2
    assert "broken" not in table.vectors


def test_load_word_vectors_300dim_count_matches_scan(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "big.txt"
    n_words, dim = 50, 300
    lines = [f"{n_words} {dim}"]
    for i in range(n_words):
        lines.append(f"word{i} " + " ".join(f"{v:.5f}" for v in rng.normal(size=dim)))
    path.write_text("\n".join(lines) + "\n")
    # independent count: text scan of non-header lines
    with open(path) as fh:
        expected = sum(1 for line in fh) - 1
    table = load_word_vectors(path)
    assert table.dimension == 300
    assert len(table) == expected == n_words


def test_load_word_vectors_skips_a_byte_order_mark(tmp_path):
    text = "3 2\nalpha 1 0.5\nbeta 0 1\ngamma -2 3\n"
    plain, marked = tmp_path / "plain.vec", tmp_path / "bom.vec"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_word_vectors(plain), load_word_vectors(marked)
    assert got.dimension == want.dimension == 2
    assert list(got.vectors) == list(want.vectors) == ["alpha", "beta", "gamma"]
    for word, vec in want.vectors.items():
        assert np.array_equal(got.vectors[word], vec)


def test_word_vector_round_trip(tmp_path, tiny_table):
    out = tmp_path / "out.vec"
    write_word_vectors(tiny_table, out)
    again = load_word_vectors(out)
    assert again.dimension == tiny_table.dimension
    for word, vec in tiny_table.vectors.items():
        assert np.array_equal(again.vectors[word], vec)


# Number strings a word-vector file may hold: shortest repr and %.6f forms of
# doubles over a wide exponent range, subnormals, signed zeros, underflow, and
# forms that float() rejects or accepts only in Python (underscores, non-ASCII
# digits). Spellings that parse to NaN or infinity are NON_FINITE_STRINGS.
_DOUBLES = np.random.default_rng(16).standard_normal(150) * 10.0 ** np.arange(-75, 75)
NUMBER_STRINGS = (
    [repr(float(v)) for v in _DOUBLES] + [f"{v:.6f}" for v in _DOUBLES]
    + ["5e-324", "-5e-324", "2.2250738585072009e-308", "1e-320", "-0.0", "0", "-0",
       "+1.5", ".5", "1.", "1E5", "1e-400", "1_000", "1_0.2_5", "1__0", "_1", "1_",
       "0x10", "1.5f", "1,5", "one", "--1", "1e", "e5", "nan(1)", "infinit",
       "\u0661\u0662", "\uff11\uff12"]
)


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


@pytest.mark.parametrize("dim", [1, 3])
def test_load_word_vectors_parses_like_float(tmp_path, caplog, dim):
    # one line per window of `dim` strings: a line is kept with float()'s bits
    # exactly when float() takes each of its fields, and skipped otherwise
    rows = [[NUMBER_STRINGS[(i + j) % len(NUMBER_STRINGS)] for j in range(dim)]
            for i in range(len(NUMBER_STRINGS))]
    path = tmp_path / "numbers.vec"
    path.write_text(f"{len(rows)} {dim}\n"
                    + "".join(f"w{i} {' '.join(row)}\n" for i, row in enumerate(rows)),
                    encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        table = load_word_vectors(path)
    expected = {f"w{i}": [_float_or_none(t) for t in row] for i, row in enumerate(rows)}
    kept = {w for w, vals in expected.items() if None not in vals}
    assert set(table.vectors) == kept
    for word in kept:
        want = np.array(expected[word], dtype=np.float64)
        assert table.vectors[word].view(np.uint64).tolist() == want.view(np.uint64).tolist()
    skipped_lines = sorted(int(r.getMessage().split(":")[1]) for r in caplog.records
                           if "unparseable" in r.getMessage())
    assert skipped_lines == [i + 2 for i, row in enumerate(rows) if f"w{i}" not in kept]
    assert skipped_lines  # the list holds strings that both parsers reject


NON_FINITE_STRINGS = ["1e400", "-1e400", "inf", "-Infinity", "NaN", "nan", "-nan"]


@pytest.mark.parametrize("text", NON_FINITE_STRINGS)
def test_load_word_vectors_refuses_a_non_finite_component(tmp_path, text):
    path = tmp_path / "bad.vec"
    path.write_text(f"4 2\na 1 2\nb 3 x\nc 0.5 {text}\nd {text} {text}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:4: components must be finite, got {float(text)}"


def _vectors(tokens, table):
    return [table.vectors[t] for t in tokens]


def test_mean_embeddings_are_row_means(tiny_table):
    got = mean_embeddings([_vectors(["a", "b"], tiny_table), _vectors(["a", "a"], tiny_table)],
                          2)
    assert np.allclose(got, [[0.5, 0.5], [1.0, 0.0]])


def test_mean_embeddings_empty_row_is_zero(tiny_table):
    got = mean_embeddings([[], _vectors(["b"], tiny_table), []], 2)
    assert got.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert mean_embeddings([], 2).shape == (0, 2)


def test_embed_oov_excluded_from_divisor(tmp_path, tiny_table):
    # one known word + one OOV word: mean over the known word only
    path = tmp_path / "data.tsv"
    path.write_text("a zzz\tpos\nzzz b b\tneg\n")
    docs = load_dataset(path, tiny_table, LabelSpace(["pos", "neg"]))
    assert [d.embedding.tolist() for d in docs] == [[1.0, 0.0], [0.0, 1.0]]


@given(st.permutations(["a", "b", "a", "b", "b"]), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_embed_permutation_invariant_and_linear(perm, scale):
    table = EmbeddingTable(2, {"a": np.array([1.0, 2.0]), "b": np.array([-0.5, 0.25])})
    base = mean_embeddings([_vectors(["a", "b", "a", "b", "b"], table)], 2)[0]
    assert np.allclose(mean_embeddings([_vectors(perm, table)], 2)[0], base)
    scaled = EmbeddingTable(2, {w: scale * v for w, v in table.vectors.items()})
    assert np.allclose(mean_embeddings([_vectors(perm, scaled)], 2)[0], scale * base,
                       atol=1e-12)


def _assert_np_mean_bits(got, doc_vectors, dim):
    assert got.shape == (len(doc_vectors), dim)
    for row, vecs in zip(got, doc_vectors):
        want = np.mean(vecs, axis=0) if vecs else np.zeros(dim)
        assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("block", [None, 1, 40])
@pytest.mark.parametrize("dim", [1, 2, 8, 300])
def test_mean_embeddings_have_np_mean_bits(monkeypatch, dim, block):
    # block: the cells one stacked reduce may hold, so groups split into blocks of
    # one row or several; None keeps the package's size
    if block is not None:
        monkeypatch.setattr(oris.corpus, "_EMBED_BLOCK", block * dim)
    rng = np.random.default_rng(dim)
    words = [rng.standard_normal(dim) * 10.0 ** rng.integers(-8, 8) for _ in range(12)]
    # vector counts 0-20 and 40, 129, each several times, in a shuffled order;
    # repeated vectors, as a real text has
    lengths = rng.permutation(np.repeat(list(range(21)) + [40, 129], 3))
    doc_vectors = [[words[i] for i in rng.integers(0, len(words), size=n)] for n in lengths]
    _assert_np_mean_bits(mean_embeddings(doc_vectors, dim), doc_vectors, dim)


@pytest.mark.parametrize("dim", [1, 2, 8, 300])
def test_load_dataset_embeddings_have_np_mean_bits(tmp_path, dim):
    # 2,000 documents of 0-40 in-vocabulary tokens each, with repeats, capitals,
    # punctuation, out-of-vocabulary words and punctuation-only tokens between them
    rng = np.random.default_rng(100 + dim)
    vocab = [f"w{i}" for i in range(30)]
    table = EmbeddingTable(dim, {w: rng.standard_normal(dim) * 10.0 ** rng.integers(-8, 8)
                                 for w in vocab})
    labels = LabelSpace(["pos", "neg", "mid"])
    lines, want_vectors, want_classes = [], [], []
    for _ in range(2000):
        picks = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 41))]
        tokens = [w.upper() if rng.random() < 0.2 else w for w in picks]
        tokens = [f"({t}," if rng.random() < 0.2 else t for t in tokens]
        for _ in range(rng.integers(0, 4)):
            tokens.insert(rng.integers(0, len(tokens) + 1),
                          str(rng.choice(["zzz", "oov9", "--", "...", "w30"])))
        true_class = int(rng.integers(0, len(labels)))
        lines.append(" ".join(tokens) + f"\t{labels.name(true_class)}\n")
        want_vectors.append([table.vectors[w] for w in picks])
        want_classes.append(true_class)
    assert sum(not vecs for vecs in want_vectors) > 10
    path = tmp_path / "data.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    docs = load_dataset(path, table, labels, start_id=7)
    assert [d.id for d in docs] == list(range(7, 2007))
    assert [d.true_class for d in docs] == want_classes
    _assert_np_mean_bits(np.array([d.embedding for d in docs]), want_vectors, dim)


def test_load_dataset_sequential_ids(tmp_path, tiny_table):
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "data.tsv"
    path.write_text("a b\tpos\nb\tneg\na\tpos\n")
    docs = load_dataset(path, tiny_table, labels)
    assert [d.id for d in docs] == [0, 1, 2]
    assert [d.true_class for d in docs] == [0, 1, 0]
    assert np.allclose(docs[0].embedding, [0.5, 0.5])
    # load -> shuffle preserves the id multiset exactly
    assert sorted(d.id for d in shuffle_stream(docs, seed=3)) == [0, 1, 2]


def test_load_dataset_unknown_label_names_line(tmp_path, tiny_table):
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "data.tsv"
    path.write_text("a\tpos\nb\tzeal\n")
    with pytest.raises(ValueError, match="line 2.*zeal"):
        load_dataset(path, tiny_table, labels)


def test_load_dataset_empty_file(tmp_path, tiny_table):
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(ValueError, match="no records"):
        load_dataset(path, tiny_table, labels)


def test_load_dataset_refuses_a_file_with_no_word_in_the_table(tmp_path, tiny_table):
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "unseen.tsv"
    path.write_text("zzz yyy\tpos\n\tneg\n... !!\tpos\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path, tiny_table, labels)
    assert str(info.value) == f"{path}: none of its 3 documents has a word in the vector table"


def test_load_dataset_warns_once_with_the_count_of_documents_with_no_word(tmp_path,
                                                                        tiny_table, caplog):
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "some.tsv"
    path.write_text("zzz a\tpos\nzzz\tneg\nb\tpos\nyyy xxx\tneg\n\tpos\n")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        docs = load_dataset(path, tiny_table, labels)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: 3 of 5 documents have no word in the vector table and embed as zeros"]
    assert [d.embedding.tolist() for d in docs] == [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0],
                                                     [0.0, 0.0], [0.0, 0.0]]
    caplog.clear()
    path.write_text("a\tpos\nzzz b\tneg\n")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        load_dataset(path, tiny_table, labels)
    assert not caplog.records


def test_load_dataset_skips_a_byte_order_mark(tmp_path, tiny_table, caplog):
    # unskipped, the mark would join the first token and leave its document unembedded
    labels = LabelSpace(["pos", "neg"])
    text = "a\tpos\nb a b\tneg\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want = load_dataset(plain, tiny_table, labels)
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        got = load_dataset(marked, tiny_table, labels)
    assert not caplog.records
    assert [(d.id, d.true_class, d.embedding.tolist()) for d in got] == \
        [(d.id, d.true_class, d.embedding.tolist()) for d in want]
    assert got[0].embedding.tolist() == [1.0, 0.0]


def test_load_dataset_record_count_at_scale(tmp_path, tiny_table):
    # corpus-sized file: one line per record, 3845 records
    labels = LabelSpace(["pos", "neg"])
    path = tmp_path / "big.tsv"
    path.write_text("".join(f"a b\t{'pos' if i % 2 else 'neg'}\n" for i in range(3845)))
    docs = load_dataset(path, tiny_table, labels)
    assert len(docs) == 3845


def test_generate_synthetic_reproducible():
    labels = LabelSpace(["x", "y"])
    a = generate_synthetic(labels, [5, 5], 4, 1.0, seed=42)
    b = generate_synthetic(labels, [5, 5], 4, 1.0, seed=42)
    assert all(np.array_equal(d1.embedding, d2.embedding) for d1, d2 in zip(a, b))
    c = generate_synthetic(labels, [5, 5], 4, 1.0, seed=43)
    assert any(not np.array_equal(d1.embedding, d2.embedding) for d1, d2 in zip(a, c))


def test_generate_synthetic_separable_corpus_is_learnable():
    labels = LabelSpace(["x", "y"])
    docs = generate_synthetic(labels, [100, 100], 2, 10.0, seed=7)
    clf = fit([(d.embedding, d.true_class) for d in docs], labels, seed=0)
    preds = predict(clf, np.stack([d.embedding for d in docs]))
    assert f1_macro([d.true_class for d in docs], preds, labels) >= 0.99


def test_generate_synthetic_validates_dimension():
    labels = LabelSpace(["x", "y", "z"])
    with pytest.raises(ValueError, match="one-hot"):
        generate_synthetic(labels, [1, 1, 1], 2, 1.0, seed=0)


def test_shuffle_stream_single_doc():
    doc = Document(0, 0, np.zeros(2))
    assert shuffle_stream([doc], seed=1) == [doc]


def test_shuffle_stream_deterministic_and_seed_sensitive():
    labels = LabelSpace(["x", "y"])
    docs = generate_synthetic(labels, [50, 50], 2, 0.0, seed=0)
    order1 = [d.id for d in shuffle_stream(docs, seed=5)]
    order2 = [d.id for d in shuffle_stream(docs, seed=5)]
    order3 = [d.id for d in shuffle_stream(docs, seed=6)]
    assert order1 == order2
    assert order1 != order3
    assert sorted(order1) == [d.id for d in docs]  # permutation preserves id multiset


def test_synthetic_corpus_round_trips_exactly(tmp_path):
    labels = LabelSpace(["x", "y"])
    docs = generate_synthetic(labels, [3, 3], 4, 2.0, seed=9)
    data_path = tmp_path / "synth.tsv"
    vec_path = tmp_path / "synth.vec"
    write_synthetic_corpus(docs, labels, data_path)
    write_word_vectors(surrogate_table(docs), vec_path)
    reloaded = load_dataset(data_path, load_word_vectors(vec_path), labels)
    assert len(reloaded) == len(docs)
    for orig, again in zip(docs, reloaded):
        assert again.true_class == orig.true_class
        assert np.array_equal(again.embedding, orig.embedding)
