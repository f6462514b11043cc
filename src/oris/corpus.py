"""Data model, corpus ingestion, document embedding, and
the text formats of the package's files, result CSVs included.

Documents are represented by the mean of the pre-trained word vectors of
their in-vocabulary tokens, computed for a whole file at once with
`np.mean`'s bits. Every reader skips a UTF-8 byte-order mark. Synthetic
corpora draw class-conditional Gaussian embeddings so class separability is
controlled analytically.
"""

from __future__ import annotations

import csv
import logging
import string
from dataclasses import dataclass

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
    """word -> vector map with a fixed dimension. Keys are lowercased at load."""

    def __init__(self, dimension: int, vectors: dict[str, np.ndarray] | None = None):
        self.dimension = dimension
        self.vectors = vectors if vectors is not None else {}

    def __len__(self):
        return len(self.vectors)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip leading/trailing punctuation."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(string.punctuation)
        if tok:
            out.append(tok)
    return out


def load_word_vectors(path) -> EmbeddingTable:
    """Read a word-vector text file: header "<count> <dim>", then one
    "<word> <v1> ... <vdim>" line per word.

    Words are lowercased (first occurrence wins). Lines whose numeric fields
    fail to parse are skipped with a log message; a line with the wrong number
    of components is a hard error, and so is a NaN or infinite component
    ("nan", "inf", "1e400"). Each line's numbers are parsed by one
    `np.array(..., dtype=np.float64)` call, which takes and rejects the
    strings `float()` does, with its bits. A UTF-8 byte-order mark at the
    start of the file is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header '<count> <dim>', got {header!r}")
        try:
            declared_count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: non-integer header fields {header!r}") from None
        if dim < 1:
            raise ValueError(f"{path}: vector dimension must be >= 1, got {dim}")
        vectors: dict[str, np.ndarray] = {}
        linenos = []  # of each kept vector
        skipped = 0
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                skipped += 1
                logger.warning("%s:%d: blank line skipped", path, lineno)
                continue
            if len(fields) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} components, got {len(fields) - 1}"
                )
            word = fields[0].lower()
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError:
                skipped += 1
                logger.warning("%s:%d: unparseable vector skipped", path, lineno)
                continue
            if word in vectors:
                skipped += 1
                logger.warning("%s:%d: duplicate word %r skipped", path, lineno, word)
                continue
            vectors[word] = vec
            linenos.append(lineno)
    # checked once over the stacked rows: a check per line added about half the parse's time
    rows = np.array(list(vectors.values())).reshape(len(vectors), dim)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}:{linenos[row]}: components must be finite, got {rows[row, col]}")
    if len(vectors) != declared_count - skipped:
        logger.warning(
            "%s: header declares %d words, loaded %d (%d skipped)",
            path, declared_count, len(vectors), skipped,
        )
    return EmbeddingTable(dim, vectors)


def write_word_vectors(table: EmbeddingTable, path) -> None:
    """Inverse of load_word_vectors; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for word, vec in table.vectors.items():
            fh.write(word + " " + " ".join(repr(float(v)) for v in vec) + "\n")


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
# reference per in-vocabulary token of the file.
_EMBED_BLOCK = 1 << 16


def mean_embeddings(doc_vectors, dimension: int) -> np.ndarray:
    """(n, dimension) matrix whose row i is the mean of doc_vectors[i], the
    list of one document's in-vocabulary word vectors; zeros where it is empty.

    Documents are grouped by their vector count L, and each block of a group
    is one `np.add.reduce(..., axis=1) / L` over its (rows, L, dimension)
    stack. That sum adds a row's L vectors in the order `np.mean` adds them,
    and the division is its other ufunc call, so each row has `np.mean`'s
    bits. Summing over zero-padded rows, or with `np.add.reduceat`, would
    not: both add in another order.
    """
    out = np.zeros((len(doc_vectors), dimension))
    groups: dict[int, list[int]] = {}
    for i, vecs in enumerate(doc_vectors):
        if vecs:
            groups.setdefault(len(vecs), []).append(i)
    for length, rows in groups.items():
        step = max(1, _EMBED_BLOCK // (length * dimension))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            stack = np.array([doc_vectors[i] for i in block])
            out[block] = np.add.reduce(stack, axis=1) / length
    return out


def load_dataset(path, table: EmbeddingTable, labels: LabelSpace,
                 start_id: int = 0) -> list[Document]:
    """Read a tab-separated "<text>\\t<label>" file into embedded documents.

    The read loop keeps each line's class and the vectors of its
    in-vocabulary tokens; `mean_embeddings` then embeds the whole file at
    once, and each document's embedding is a row of that matrix. Documents
    get sequential ids from start_id. All offending lines (unknown labels,
    missing separators) are reported in one error. A document with no word
    in the table embeds as zeros: a file of only such documents is an error,
    and some of them are counted in one warning. A UTF-8 byte-order mark
    at the start of the file is skipped.
    """
    classes: list[int] = []
    doc_vectors: list[list[np.ndarray]] = []
    bad: list[str] = []
    vectors = table.vectors
    unseen = 0  # documents with no word in the table
    with open(path, "r", encoding="utf-8-sig") as fh:
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
            vecs = [vectors[t] for t in tokenize(text) if t in vectors]
            unseen += not vecs
            classes.append(true_class)
            doc_vectors.append(vecs)
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
    embeddings = mean_embeddings(doc_vectors, table.dimension)
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
    dim = len(docs[0].embedding)
    return EmbeddingTable(dim, {synthetic_token(d.id): np.asarray(d.embedding) for d in docs})
