import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oris.corpus import (
    Document,
    EmbeddingTable,
    LabelSpace,
    embed_document,
    generate_synthetic,
    load_dataset,
    load_word_vectors,
    shuffle_stream,
    surrogate_table,
    tokenize,
    write_synthetic_corpus,
    write_word_vectors,
)
from oris.learner import f1_macro, fit, predict


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
    assert np.array_equal(tiny_table.get("a"), [1.0, 0.0])
    assert np.array_equal(tiny_table.get("b"), [0.0, 1.0])


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
    assert "broken" not in table


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


def test_word_vector_round_trip(tmp_path, tiny_table):
    out = tmp_path / "out.vec"
    write_word_vectors(tiny_table, out)
    again = load_word_vectors(out)
    assert again.dimension == tiny_table.dimension
    for word, vec in tiny_table.vectors.items():
        assert np.array_equal(again.get(word), vec)


def test_embed_document_mean(tiny_table):
    assert np.allclose(embed_document(["a", "b"], tiny_table), [0.5, 0.5])
    assert np.allclose(embed_document(["a", "a"], tiny_table), [1.0, 0.0])


def test_embed_document_all_oov_is_zero(tiny_table):
    assert np.array_equal(embed_document(["zzz"], tiny_table), [0.0, 0.0])


def test_embed_oov_excluded_from_divisor(tiny_table):
    # one known word + one OOV word: mean over the known word only
    assert np.allclose(embed_document(["a", "zzz"], tiny_table), [1.0, 0.0])


@given(st.permutations(["a", "b", "a", "b", "b"]), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_embed_permutation_invariant_and_linear(perm, scale):
    table = EmbeddingTable(2, {"a": np.array([1.0, 2.0]), "b": np.array([-0.5, 0.25])})
    base = embed_document(["a", "b", "a", "b", "b"], table)
    assert np.allclose(embed_document(list(perm), table), base)
    scaled = EmbeddingTable(2, {w: scale * v for w, v in table.vectors.items()})
    assert np.allclose(embed_document(list(perm), scaled), scale * base, atol=1e-12)


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


def test_shuffle_stream_rejects_empty():
    with pytest.raises(ValueError):
        shuffle_stream([], seed=0)


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
