"""Data model, corpus ingestion, document embedding, and
the text formats of the package's files, result CSVs included.

Documents are represented by the mean of the pre-trained word vectors of
their in-vocabulary tokens, computed for a whole file at once with
`np.mean`'s bits. A word-vector table is one matrix, whose numbers are
parsed by one call of numpy's C tokenizer; only a file that fails it is read
again, line by line, to name its first bad line. Every reader skips a UTF-8
byte-order mark and names its file when a byte is not UTF-8. Synthetic
corpora draw class-conditional Gaussian embeddings so class separability is
controlled analytically.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import string
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .checks import check

logger = logging.getLogger(__name__)


class LabelSpace:
    """Ordered, immutable set of class names; class index = list position."""

    def __init__(self, classes):
        classes = tuple(classes)
        check((len(classes) < 2, f"need at least 2 classes, got {len(classes)}"),
              (len(set(classes)) != len(classes), "class names must be unique"))
        self.classes = classes
        self._index = {name: i for i, name in enumerate(classes)}

    def __len__(self):
        return len(self.classes)

    def __eq__(self, other):
        return isinstance(other, LabelSpace) and self.classes == other.classes

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, index: int) -> str:
        return self.classes[index]

    def __repr__(self):
        return f"LabelSpace({list(self.classes)!r})"


@dataclass
class Document:
    """One stream item: ground-truth class index and dense embedding."""

    id: int
    true_class: int
    embedding: np.ndarray


class EmbeddingTable:
    """Word vectors as one (n, dimension) float64 matrix and a word -> row
    map. Keys are lowercased at load; a row no key names (a later duplicate
    word's line) is never read."""

    def __init__(self, matrix: np.ndarray, rows: dict[str, int]):
        self.matrix = matrix
        self.rows = rows

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self):
        return len(self.rows)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading/trailing punctuation."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


@contextlib.contextmanager
def open_text(path, newline=None):
    """`path` opened for reading as UTF-8 text, a leading byte-order mark
    skipped; a byte that is not UTF-8 is a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                         f"{exc.reason})") from None


def _parse(lines) -> np.ndarray:
    """2-D float64 rows of whitespace-separated number text, one per string,
    by numpy's C tokenizer. It takes the strings `float()` takes, with its
    bits, except underscores ("1_0") and non-ASCII digits, which it refuses."""
    return np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)


def _unparseable(text: str) -> str:
    """The first whitespace-separated field of `text` that `_parse` refuses;
    `text` itself if each field parses alone."""
    for field in text.split():
        try:
            _parse([field])
        except ValueError:
            return field
    return text


def load_word_vectors(path) -> EmbeddingTable:
    """Read a word-vector text file: header "<count> <dim>", then one
    "<word> <v1> ... <vdim>" line per word.

    Words are lowercased, and the first occurrence of a word wins; blank
    lines and later duplicates are skipped with a log message. Every other
    line must hold `dim` finite numbers: a wrong width, an unparseable
    component ("x", "1_0") and a NaN or infinite one ("nan", "inf", "1e400")
    are each an error naming the line, duplicates' lines included. The loop
    splits off each line's word, and one `np.loadtxt` call parses all their
    numbers with `float()`'s bits; if it fails, a second read names the line.
    A UTF-8 byte-order mark at the start of the file is skipped.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header '<count> <dim>', got {header!r}")
        try:
            declared_count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer header fields {header!r}") from None
        if dim < 1:
            raise ValueError(f"{path}: vector dimension must be >= 1, got {dim}")
        rows: dict[str, int] = {}
        n_rows = 0
        skipped = 0

        def number_texts():
            nonlocal n_rows, skipped
            for lineno, line in enumerate(fh, start=2):
                fields = line.split(None, 1)
                if not fields:
                    skipped += 1
                    logger.warning("%s:%d: blank line skipped", path, lineno)
                    continue
                if len(fields) == 1:
                    raise ValueError  # `np.loadtxt` would skip it: a second read names it
                word = fields[0].lower()
                if rows.setdefault(word, n_rows) != n_rows:
                    skipped += 1
                    logger.warning("%s:%d: duplicate word %r skipped", path, lineno, word)
                n_rows += 1
                yield fields[1]

        texts = number_texts()
        try:
            first = next(texts, None)  # `np.loadtxt` warns on an empty input
            matrix = np.empty((0, dim)) if first is None else _parse(chain([first], texts))
        except UnicodeDecodeError:  # a ValueError, but not a bad line: `open_text` names it
            raise
        except ValueError:
            matrix = None
    if matrix is None or matrix.shape != (n_rows, dim) or not np.isfinite(matrix).all():
        _refuse_first_bad_line(path, dim)
    if len(rows) != declared_count - skipped:
        logger.warning(
            "%s: header declares %d words, loaded %d (%d skipped)",
            path, declared_count, len(rows), skipped,
        )
    return EmbeddingTable(matrix, rows)


def _refuse_first_bad_line(path, dim: int) -> None:
    """Raise the error of the first line of word-vector file `path` that is not
    a word and `dim` finite numbers, reading it again and parsing each line alone."""
    with open_text(path) as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            fields = line.split(None, 1)
            if not fields:
                continue
            if len(fields) == 1:
                raise ValueError(f"{path}:{lineno}: expected {dim} components, got 0")
            try:
                row = _parse([fields[1]])[0]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: components must be numbers, got "
                                 f"{_unparseable(fields[1])!r}") from None
            if len(row) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} components, got {len(row)}")
            if not np.isfinite(row).all():
                raise ValueError(f"{path}:{lineno}: components must be finite, got "
                                 f"{row[~np.isfinite(row)][0]}")
    raise ValueError(f"{path}: its lines parse one at a time but not as one table")


def write_word_vectors(table: EmbeddingTable, path) -> None:
    """Inverse of load_word_vectors; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for word, row in table.rows.items():
            fh.write(word + " " + " ".join(map(repr, table.matrix[row].tolist())) + "\n")


def write_csv(path, header, rows) -> None:
    """Result CSV: the header, then one line per row; a float cell (numpy's
    included) is written at 6 decimals, any other cell as an int, so a flag
    reads 0/1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else int(v) for v in row]
                         for row in rows)


# float64 cells (512 KB) one stack of same-length documents may hold, so a stack
# stays in cache: at E = 300, 8 MB stacks made the embed slower than a
# per-document mean. This caps only the stack; the read loop's lists hold one
# row id per in-vocabulary token of the file.
_EMBED_BLOCK = 1 << 16


def mean_embeddings(doc_rows, matrix: np.ndarray) -> np.ndarray:
    """(n, E) matrix whose row i is the mean of the rows doc_rows[i] of the
    (vocabulary, E) `matrix`; zeros where doc_rows[i] is empty.

    Documents are grouped by their row count L, and each block of a group is
    one fancy index of `matrix`, a (rows, L, E) stack, and one
    `np.add.reduce(..., axis=1) / L` over it. That sum adds a document's L
    vectors in the order `np.mean` adds them, and the division is its other
    ufunc call, so each row has `np.mean`'s bits. Summing over zero-padded
    rows, or with `np.add.reduceat`, would not: both add in another order.
    """
    dimension = matrix.shape[1]
    out = np.zeros((len(doc_rows), dimension))
    groups: dict[int, list[int]] = {}
    for i, ids in enumerate(doc_rows):
        if ids:
            groups.setdefault(len(ids), []).append(i)
    for length, docs in groups.items():
        step = max(1, _EMBED_BLOCK // (length * dimension))
        for lo in range(0, len(docs), step):
            block = docs[lo:lo + step]
            stack = matrix[np.array([doc_rows[i] for i in block])]
            out[block] = np.add.reduce(stack, axis=1) / length
    return out


def load_dataset(path, table: EmbeddingTable, labels: LabelSpace,
                 start_id: int = 0) -> list[Document]:
    """Read a tab-separated "<text>\\t<label>" file into embedded documents.

    The read loop keeps each line's class and the table rows of its
    in-vocabulary tokens; `mean_embeddings` then embeds the whole file at
    once, and each document's embedding is a row of that matrix. Documents
    get sequential ids from start_id. All offending lines (unknown labels,
    missing separators) are reported in one error. A document with no word
    in the table embeds as zeros: a file of only such documents is an error,
    and some of them are counted in one warning. A UTF-8 byte-order mark
    at the start of the file is skipped.
    """
    classes: list[int] = []
    doc_rows: list[list[int]] = []
    bad: list[str] = []
    rows = table.rows
    unseen = 0  # documents with no word in the table
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            text, sep, label = line.rpartition("\t")
            if not sep:
                bad.append(f"line {lineno}: missing tab separator")
                continue
            label = label.strip()
            try:
                true_class = labels.index(label)
            except KeyError:
                bad.append(f"line {lineno}: unknown label {label!r}")
                continue
            ids = [rows[t] for t in tokenize(text) if t in rows]
            unseen += not ids
            classes.append(true_class)
            doc_rows.append(ids)
    if bad:
        raise ValueError(f"{path}: " + "; ".join(bad))
    if not classes:
        raise ValueError(f"{path}: no records")
    if unseen == len(classes):
        raise ValueError(f"{path}: none of its {len(classes)} documents has a word in the "
                         f"vector table")
    if unseen:
        logger.warning("%s: %d of %d documents have no word in the vector table and embed "
                       "as zeros", path, unseen, len(classes))
    embeddings = mean_embeddings(doc_rows, table.matrix)
    return [Document(id=start_id + i, true_class=c, embedding=e)
            for i, (c, e) in enumerate(zip(classes, embeddings))]


def generate_synthetic(
    labels: LabelSpace,
    per_class,
    dim: int,
    sep: float,
    seed,
    start_id: int = 0,
) -> list[Document]:
    """Class-conditional Gaussian corpus: class c has mean sep * e_c (one-hot
    direction), unit variance. Bit-reproducible under seed.
    """
    if len(per_class) != len(labels):
        raise ValueError(f"per_class has {len(per_class)} entries for {len(labels)} classes")
    if any(n < 0 for n in per_class):
        raise ValueError("per-class counts must be >= 0")
    if sep < 0:
        raise ValueError("separation must be >= 0")
    if dim < len(labels):
        raise ValueError(
            f"embedding dimension {dim} < {len(labels)} classes; one-hot class means need dim >= C"
        )
    rng = np.random.default_rng(seed)
    docs: list[Document] = []
    for c, count in enumerate(per_class):
        mean = np.zeros(dim)
        mean[c] = sep
        samples = mean + rng.standard_normal((count, dim))
        for row in samples:
            docs.append(Document(id=start_id + len(docs), true_class=c, embedding=row))
    return docs


def synthetic_token(doc_id: int) -> str:
    return f"w{doc_id}"


def write_synthetic_corpus(docs, labels: LabelSpace, path) -> None:
    """Write synthetic documents in the dataset record format, one surrogate
    token per document. Pair with the table from `surrogate_table` so a
    reload reproduces every embedding exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(f"{synthetic_token(doc.id)}\t{labels.name(doc.true_class)}\n")


def surrogate_table(docs) -> EmbeddingTable:
    """Embedding table mapping each document's surrogate token to its vector."""
    if not docs:
        raise ValueError("no documents")
    matrix = np.array([d.embedding for d in docs], dtype=np.float64)
    return EmbeddingTable(matrix, {synthetic_token(d.id): i for i, d in enumerate(docs)})
