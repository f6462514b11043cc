import logging
import tracemalloc
import warnings

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
    write_synthetic_corpus,
    write_word_vectors,
)
from oris.learner import f1_macro, fit, predict

from helpers import reference_load_dataset, shuffle_stream


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


def test_tokenize_lowercases_and_strips_punctuation(tmp_path, caplog):
    # the loader's token rule: lowercase, split on whitespace, strip leading and
    # trailing punctuation; a token of only punctuation is no word
    table = EmbeddingTable(np.array([[1.0, 0.1], [0.3, -2.0], [0.7, 5.0]]),
                           {"hello": 0, "world": 1, "foo-bar": 2})
    path = tmp_path / "tokens.tsv"
    path.write_text("Hello, World!  foo-bar\tpos\n...\tneg\n")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        docs = load_dataset(path, table, LabelSpace(["pos", "neg"]))
    want = np.mean([table.matrix[0], table.matrix[1], table.matrix[2]], axis=0)
    assert docs[0].embedding.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert docs[1].embedding.tolist() == [0.0, 0.0]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: 1 of 2 documents have no word in the vector table and embed as zeros"]


def _vector(table, word):
    return table.matrix[table.rows[word]]


def test_load_word_vectors_minimal(tiny_table):
    assert tiny_table.dimension == 2
    assert len(tiny_table) == 2
    assert tiny_table.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert tiny_table.rows == {"a": 0, "b": 1}


def test_load_word_vectors_dimension_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\na 1 0\nb 0 1 5\n")
    with pytest.raises(ValueError, match="components"):
        load_word_vectors(path)


def test_load_word_vectors_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_word_vectors(tmp_path / "nope.txt")


def test_load_word_vectors_refuses_an_unparseable_row(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("3 2\na 1 0\nbroken x y\nb 0 1\n")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:3: components must be numbers, got 'x'"


def test_load_word_vectors_refuses_a_line_of_only_a_word(tmp_path):
    # np.loadtxt would skip the line's empty number text and shift every later row
    path = tmp_path / "vecs.txt"
    path.write_text("3 2\na 1 0\nb  \nc 0 1\n")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:3: expected 2 components, got 0"
    # a bad line before it is named first
    path.write_text("3 2\na 1 x\nb\nc 0 1\n")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:2: components must be numbers, got 'x'"


@pytest.mark.parametrize("line, problem", [
    ("A 1 2 3", "expected 2 components, got 3"),
    ("A 7", "expected 2 components, got 1"),
    ("A", "expected 2 components, got 0"),
    ("A 1 1_0", "components must be numbers, got '1_0'"),
    ("A nan 1", "components must be finite, got nan"),
])
def test_load_word_vectors_refuses_a_bad_duplicate(tmp_path, line, problem):
    # a duplicate word's line is skipped only once it is a complete, finite vector
    path = tmp_path / "vecs.txt"
    path.write_text(f"3 2\na 1 0\n{line}\nb 0 1\n")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:3: {problem}"


_GOOD_LINES = ["a 1 0", "b 0 1", "A 5 5", "c -2.5 3e-7", "d 1e300 -0.0", "e 4 2", "f 0 0"]


def test_load_word_vectors_parses_every_line_into_one_matrix(tmp_path):
    # a blank line has no row; a duplicate's line has one, which no word names
    path = tmp_path / "vecs.txt"
    path.write_text("7 2\n" + "\n".join(_GOOD_LINES[:4] + [""] + _GOOD_LINES[4:]) + "\n")
    table = load_word_vectors(path)
    assert table.rows == {"a": 0, "b": 1, "c": 3, "d": 4, "e": 5, "f": 6}
    want = np.array([[float(v) for v in line.split()[1:]] for line in _GOOD_LINES])
    assert table.matrix.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert table.matrix[3].tolist() == [-2.5, 3e-7]


def test_load_word_vectors_counts_vector_lines_against_the_header(tmp_path, caplog):
    # a blank line is logged, but is no vector line the header counts
    path = tmp_path / "vecs.txt"
    path.write_text("3 2\na 1 0\n\nb 0 1\nc 1 1\n")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        load_word_vectors(path)
    assert [r.getMessage() for r in caplog.records] == [f"{path}:3: blank line skipped"]
    caplog.clear()
    path.write_text("4 2\na 1 0\n\nb 0 1\nc 1 1\n")
    with caplog.at_level(logging.WARNING, logger="oris.corpus"):
        load_word_vectors(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:3: blank line skipped",
        f"{path}: header declares 4 words, the file holds 3 vector lines"]


@pytest.mark.parametrize("dim, good", [(2, _GOOD_LINES),
                                       # more than 2^16 cells of good lines before the bad one
                                       (300, [f"w{i} " + " ".join([repr(i / 7)] * 300)
                                              for i in range(300)])])
@pytest.mark.parametrize("bad, problem", [
    (lambda dim: " ".join(["1"] * (dim + 1)), "expected {dim} components, got {wider}"),
    (lambda dim: "", "expected {dim} components, got 0"),
    (lambda dim: " ".join(["0"] * (dim - 1) + ["x"]), "components must be numbers, got 'x'"),
    (lambda dim: " ".join(["-inf"] + ["0"] * (dim - 1)), "components must be finite, got -inf"),
], ids=["wide", "word-only", "x", "-inf"])
def test_load_word_vectors_names_a_bad_line_after_good_ones(tmp_path, dim, good, bad, problem):
    # the bad line comes before the last two good ones, which are not named
    path = tmp_path / "vecs.txt"
    lines = good[:-2] + [f"g {bad(dim)}"] + good[-2:]
    path.write_text(f"{len(lines)} {dim}\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:{len(good)}: " + problem.format(dim=dim, wider=dim + 1)


def test_load_word_vectors_refuses_word_only_lines_without_a_numpy_warning(tmp_path):
    # their number text, were it parsed, would be an input with no data
    path = tmp_path / "vecs.txt"
    path.write_text("2 2\na\nb\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on an input with no data
        with pytest.raises(ValueError) as info:
            load_word_vectors(path)
    assert str(info.value) == f"{path}:2: expected 2 components, got 0"


def test_load_word_vectors_peaks_near_one_matrix(tmp_path):
    # at its peak the loader holds about one copy of the table, not two
    rng = np.random.default_rng(3)
    n_words, dim = 2000, 300
    path = tmp_path / "vecs.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_words} {dim}\n")
        for i, row in enumerate(rng.standard_normal((n_words, dim)).tolist()):
            fh.write(f"w{i} " + " ".join(map(repr, row)) + "\n")
    tracemalloc.start()
    try:
        table = load_word_vectors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.matrix.shape == (n_words, dim)
    assert peak < 1.5 * table.matrix.nbytes, peak / table.matrix.nbytes


def test_load_word_vectors_of_only_blank_lines_is_an_empty_table(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("0 3\n\n   \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on an empty input
        table = load_word_vectors(path)
    assert len(table) == 0
    assert table.dimension == 3
    assert table.matrix.shape == (0, 3)


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
    assert list(got.rows) == list(want.rows) == ["alpha", "beta", "gamma"]
    assert np.array_equal(got.matrix, want.matrix)


def test_word_vector_round_trip(tmp_path, tiny_table):
    out = tmp_path / "out.vec"
    write_word_vectors(tiny_table, out)
    again = load_word_vectors(out)
    assert again.dimension == tiny_table.dimension
    assert again.rows == tiny_table.rows
    assert np.array_equal(again.matrix, tiny_table.matrix)


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


def _loaded_or_none(text):
    """float(text), or None where the loader refuses text: where float() does,
    and at an underscore or a non-ASCII digit, which float() takes."""
    if "_" in text or not text.isascii():
        return None
    return _float_or_none(text)


@pytest.mark.parametrize("dim", [1, 3])
def test_load_word_vectors_parses_like_float(tmp_path, dim):
    # one line per window of `dim` strings: a line loads with float()'s bits when
    # the loader takes each of its strings, and is refused, naming the line and
    # its first refused string, otherwise
    rows = [[NUMBER_STRINGS[(i + j) % len(NUMBER_STRINGS)] for j in range(dim)]
            for i in range(len(NUMBER_STRINGS))]
    expected = [[_loaded_or_none(t) for t in row] for row in rows]
    kept = [vals for vals in expected if None not in vals]
    path = tmp_path / "numbers.vec"
    path.write_text(f"{len(kept)} {dim}\n"
                    + "".join(f"w{i} {' '.join(row)}\n" for i, (row, vals)
                              in enumerate(zip(rows, expected)) if None not in vals),
                    encoding="utf-8")
    table = load_word_vectors(path)
    want = np.array(kept, dtype=np.float64).reshape(len(kept), dim)
    assert table.matrix.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    refused = [(row, vals) for row, vals in zip(rows, expected) if None in vals]
    assert refused  # the list holds strings that the loader refuses
    for row, vals in refused:
        path.write_text(f"2 {dim}\nok {' '.join(['1'] * dim)}\nw {' '.join(row)}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_word_vectors(path)
        assert str(info.value) == \
            f"{path}:3: components must be numbers, got {row[vals.index(None)]!r}"


_SPELLINGS = [repr, "{:.17e}".format, "{:.5f}".format, "{:g}".format,
              lambda v: repr(v) if repr(v).startswith("-") else "+" + repr(v)]
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1e300, -1e300,
                 1e-300, -1e-300, 1.7976931348623157e308]


@pytest.mark.parametrize("dim", [1, 8, 300])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_load_word_vectors_has_the_bits_of_float(tmp_path_factory, dim, data):
    # every component of a loaded row has float(s)'s bits, s its spelling in the
    # file; the drawn doubles and spellings are cycled to fill whole lines
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                                | st.sampled_from(_EDGE_DOUBLES), max_size=64))
    values += _EDGE_DOUBLES
    spell = data.draw(st.lists(st.sampled_from(_SPELLINGS), min_size=1, max_size=7))
    texts = [spell[i % len(spell)](values[i % len(values)])
             for i in range(-(-len(values) // dim) * dim)]
    lines = [texts[i:i + dim] for i in range(0, len(texts), dim)]
    path = tmp_path_factory.mktemp("bits") / "vecs.vec"
    path.write_text(f"{len(lines)} {dim}\n"
                    + "".join(f"w{i} {' '.join(line)}\n" for i, line in enumerate(lines)),
                    encoding="utf-8")
    table = load_word_vectors(path)
    want = np.array([float(t) for t in texts]).reshape(len(lines), dim)
    assert table.matrix.view(np.uint64).tolist() == want.view(np.uint64).tolist()


NON_FINITE_STRINGS = ["1e400", "-1e400", "inf", "-Infinity", "NaN", "nan", "-nan"]


@pytest.mark.parametrize("text", NON_FINITE_STRINGS)
def test_load_word_vectors_refuses_a_non_finite_component(tmp_path, text):
    path = tmp_path / "bad.vec"
    path.write_text(f"4 2\na 1 2\n\nc 0.5 {text}\nd {text} {text}\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_word_vectors(path)
    assert str(info.value) == f"{path}:4: components must be finite, got {float(text)}"


def _rows(tokens, table):
    return [table.rows[t] for t in tokens]


def test_mean_embeddings_are_row_means(tiny_table):
    got = mean_embeddings([_rows(["a", "b"], tiny_table), _rows(["a", "a"], tiny_table)],
                          tiny_table.matrix)
    assert np.allclose(got, [[0.5, 0.5], [1.0, 0.0]])


def test_mean_embeddings_empty_row_is_zero(tiny_table):
    got = mean_embeddings([[], _rows(["b"], tiny_table), []], tiny_table.matrix)
    assert got.tolist() == [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert mean_embeddings([], tiny_table.matrix).shape == (0, 2)


def test_embed_oov_excluded_from_divisor(tmp_path, tiny_table):
    # one known word + one OOV word: mean over the known word only
    path = tmp_path / "data.tsv"
    path.write_text("a zzz\tpos\nzzz b b\tneg\n")
    docs = load_dataset(path, tiny_table, LabelSpace(["pos", "neg"]))
    assert [d.embedding.tolist() for d in docs] == [[1.0, 0.0], [0.0, 1.0]]


@given(st.permutations(["a", "b", "a", "b", "b"]), st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_embed_permutation_invariant_and_linear(perm, scale):
    table = EmbeddingTable(np.array([[1.0, 2.0], [-0.5, 0.25]]), {"a": 0, "b": 1})
    base = mean_embeddings([_rows(["a", "b", "a", "b", "b"], table)], table.matrix)[0]
    assert np.allclose(mean_embeddings([_rows(perm, table)], table.matrix)[0], base)
    assert np.allclose(mean_embeddings([_rows(perm, table)], scale * table.matrix)[0],
                       scale * base, atol=1e-12)


def _assert_np_mean_bits(got, doc_rows, matrix):
    # the reference: np.mean over the list of each document's vectors
    dim = matrix.shape[1]
    assert got.shape == (len(doc_rows), dim)
    for row, ids in zip(got, doc_rows):
        want = np.mean([matrix[i] for i in ids], axis=0) if ids else np.zeros(dim)
        assert row.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("block", [None, 1, 40])
@pytest.mark.parametrize("dim", [1, 2, 8, 300])
def test_mean_embeddings_have_np_mean_bits(monkeypatch, dim, block):
    # block: the cells one stacked reduce may hold, so groups split into blocks of
    # one row or several; None keeps the package's size
    if block is not None:
        monkeypatch.setattr(oris.corpus, "_EMBED_BLOCK", block * dim)
    rng = np.random.default_rng(dim)
    matrix = rng.standard_normal((12, dim)) * 10.0 ** rng.integers(-8, 8, size=(12, 1))
    # row counts 1-60 and 64, 100, 129, 257 three times each, and 1 and 2 fifty more
    # times, so that block = 40 splits their groups too, with 200 empty documents
    # between them, in a shuffled order; repeated rows, as a real text has
    counts = list(range(1, 61)) + [64, 100, 129, 257]
    lengths = rng.permutation(np.repeat(counts, 3).tolist() + [1, 2] * 50 + [0] * 200)
    doc_rows = [rng.integers(0, len(matrix), size=n).tolist() for n in lengths]
    _assert_np_mean_bits(mean_embeddings(doc_rows, matrix), doc_rows, matrix)


@pytest.mark.parametrize("dim", [1, 2, 8, 300])
def test_load_dataset_embeddings_have_np_mean_bits(tmp_path, dim):
    # 2,000 documents of 0-40 in-vocabulary tokens each, with repeats, capitals,
    # punctuation, out-of-vocabulary words and punctuation-only tokens between them
    rng = np.random.default_rng(100 + dim)
    vocab = [f"w{i}" for i in range(30)]
    table = EmbeddingTable(
        rng.standard_normal((len(vocab), dim)) * 10.0 ** rng.integers(-8, 8, size=(len(vocab), 1)),
        {w: i for i, w in enumerate(vocab)})
    labels = LabelSpace(["pos", "neg", "mid"])
    lines, want_rows, want_classes = [], [], []
    for _ in range(2000):
        picks = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 41))]
        tokens = [w.upper() if rng.random() < 0.2 else w for w in picks]
        tokens = [f"({t}," if rng.random() < 0.2 else t for t in tokens]
        for _ in range(rng.integers(0, 4)):
            tokens.insert(rng.integers(0, len(tokens) + 1),
                          str(rng.choice(["zzz", "oov9", "--", "...", "w30"])))
        true_class = int(rng.integers(0, len(labels)))
        lines.append(" ".join(tokens) + f"\t{labels.name(true_class)}\n")
        want_rows.append(_rows(picks, table))
        want_classes.append(true_class)
    assert sum(not ids for ids in want_rows) > 10
    path = tmp_path / "data.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    docs = load_dataset(path, table, labels, start_id=7)
    assert [d.id for d in docs] == list(range(7, 2007))
    assert [d.true_class for d in docs] == want_classes
    _assert_np_mean_bits(np.array([d.embedding for d in docs]), want_rows, table.matrix)


_TOKENS = ["hello", "World", "FOO-BAR", "(hello,", "world!", "'foo-bar'", "...", "--",
           "zzz", "Zzz.", "héllo", "w\x0cb", "a\u00a0world"]
_SPACES = ["", " ", "  ", "\t", " \t ", "\t\t", "\x0c", "\u00a0"]


@st.composite
def _dataset_line(draw, classes, refused):
    # one line of a dataset file, its ending not included: with refused lines, a
    # line may lack its tab or hold a label that is no class
    kind = draw(st.sampled_from(["record", "tabs", "blank"] + ["no tab"] * refused))
    tokens = draw(st.lists(st.sampled_from(_TOKENS), max_size=5))
    glue = draw(st.sampled_from([" ", "  ", " \x0c"]))
    pad = draw(st.sampled_from(["{}", " {} ", "{}\x0c "]))
    label = pad.format(draw(st.sampled_from(classes + ["zeal", "", "POS"] * refused)))
    if kind == "blank":
        return draw(st.sampled_from(_SPACES))
    if kind == "no tab":
        return glue.join(tokens + [label] * draw(st.booleans()))
    text = "\t".join(glue.join(tokens[i::2]) for i in range(2 if kind == "tabs" else 1))
    return text + "\t" + label


@given(data=st.data(), ending=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans(),
       classes=st.sampled_from([["pos", "neg", "mid"], ["pos", ""], ["neg", "zeal", "POS"]]),
       empty_key=st.booleans(), start_id=st.sampled_from([0, 7]))
@settings(max_examples=300, deadline=None)
def test_load_dataset_matches_the_reference_loop(tmp_path_factory, data, ending, last,
                                                 classes, empty_key, start_id):
    # blank, whitespace-only and tab-only lines, missing tabs, unknown and empty labels,
    # several tabs on a line, CRLF and CR endings, and tokens of only punctuation,
    # of mixed case and out of the table: the ids, classes and embedding bits of the
    # loop that tokenizes each line, or else its error, and its warnings
    refused = data.draw(st.booleans())
    lines = data.draw(st.lists(_dataset_line(classes, refused), min_size=1, max_size=12))
    words = ["hello", "world", "foo-bar", "w\x0cb"] + [""] * empty_key
    table = EmbeddingTable(np.random.default_rng(len(words)).standard_normal((len(words), 3)),
                           {w: i for i, w in enumerate(words)})
    labels = LabelSpace(classes)
    path = tmp_path_factory.mktemp("ref") / "data.tsv"
    path.write_bytes((ending.join(lines) + ending * last).encode("utf-8"))
    try:
        want, want_warned = reference_load_dataset(path, table, labels, start_id)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            load_dataset(path, table, labels, start_id)
        assert str(info.value) == str(exc)
        return
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logging.getLogger("oris.corpus").addHandler(handler)
    try:
        got = load_dataset(path, table, labels, start_id)
    finally:
        logging.getLogger("oris.corpus").removeHandler(handler)
    assert [r.getMessage() for r in records] == want_warned
    assert [(d.id, d.true_class, d.embedding.view(np.uint64).tolist()) for d in got] == \
        [(i, c, e.view(np.uint64).tolist()) for i, c, e in want]


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
