"""Weighted naive-Bayes estimation and classification.

A ``NaiveBayesModel`` is its schema plus plain arrays: the (C,) priors,
one (C, V) conditional table per attribute, the bin edges (empty for a
discrete attribute), the smoothing k and the fit-time class masses. Names,
kinds and domains are read from the schema alone.

Each continuous column of a training set is sorted once: ``column_ranks``
memoises its sorted distinct values and each row's rank among them on the
dataset, and every dataset derived without copying the column (new
weights or labels, a projection) shares that memo; ``take`` starts
afresh. ``subset_ranks`` gives the (distinct, rank) of any rows from
those ranks without a sort, exactly what ``np.unique`` of the rows would
give, so the fits, the gain tree and every NB-tree node read one sort. A
zero among the distinct values is always ``+0.0``: ``np.unique`` keeps
whichever of ``-0.0`` and ``0.0`` its sort puts first, so without that an
edge or cut at zero would take its sign from the rows ranked.
``rank_codes`` is the one equal-frequency binning, of one column by its
value ranks; discrete attributes keep their symbol codes.
``fit_codes`` is the one fit: priors are class mass over total mass,
conditionals are add-k smoothed weighted frequencies, with k in absolute
weight units. ``fit_naive_bayes`` (the
baselines and the weighting pass) states k in units of the dataset's mean
example weight; each NB-tree node calls ``fit_codes`` with the tree's k.

Codes have one layout, one column per attribute: ``fit_naive_bayes`` and
the NB-tree's nodes bin them (``bin_ranks``), ``fit_codes`` counts them,
and ``encode_dataset`` yields them one at a time for ``log_scores`` to
add, so scoring never holds an (n, A) matrix. It codes a continuous
value by counting the edges it exceeds (``bin_codes``), not by a search.

All scoring runs in the natural-log domain: a class score is log P(C) plus
the sum of per-attribute log conditionals, each optionally raised to an
attribute weight in [0, 1]. Probabilities reported to callers are
exponentiated after normalisation across classes.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import AttributeSpec, Example, Schema, WeightedDataset
from .exceptions import DataFormatError, SchemaError, TrainingError

SMOOTHING_K = 1.0   # the default add-k, in units of the data's mean example weight
BINS = 10           # the default equal-frequency bins of a continuous attribute


def check_fit_settings(k: float = SMOOTHING_K, bins: int = BINS) -> None:
    """Raise ``ValueError`` unless the smoothing k is finite and >= 0 and
    ``bins`` >= 1."""
    if not (math.isfinite(k) and k >= 0):
        raise ValueError(f"smoothing_k must be finite and >= 0, got {k!r}")
    if not bins >= 1:
        raise ValueError(f"bins must be >= 1, got {bins!r}")


def bin_codes(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The bin of each of ``values`` under the sorted ``edges``, bin i
    covering (edges[i-1], edges[i]]: ``len(edges)`` less the edges it does
    not exceed, which equals ``np.searchsorted(edges, values, side="left")``
    for every float (NaN above all edges, -0.0 equal to 0.0), one
    comparison per edge and value, in the smallest dtype that holds
    ``len(edges)``."""
    codes = np.full(len(values), len(edges), np.min_scalar_type(len(edges)))
    for edge in edges:
        codes -= values <= edge
    return codes


def rank_codes(rank: np.ndarray, n_distinct: int,
               bins: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Equal-frequency codes of one column (a fit's, a node's or a
    candidate child's) from ``rank``, each row's rank among ``n_distinct``
    sorted distinct values: the column's own, or those of the node column
    a child's rows were taken from. Returns the int32 codes, the code count V and the edge ranks. A column
    of m rows cuts at its sorted values floor((m - 1) * i / bins),
    i = 1 .. bins - 1 (the "lower" quantiles), read from the cumulative
    histogram of its ranks; ties collapse and an edge at its largest value
    is dropped. Bin i covers (edge[i-1], edge[i]]. A column of m <= bins
    rows cuts at every value but its largest, so ``bins`` is clamped to m."""
    m, U = len(rank), max(n_distinct, 1)
    bins = min(bins, max(m, 1))
    cum = np.cumsum(np.bincount(rank, minlength=U))
    at = np.searchsorted(cum, np.floor((m - 1) * (np.arange(1, bins) / bins)).astype(np.intp),
                         side="right")
    keep = at < np.searchsorted(cum, m - 1, side="right")   # below the largest value
    keep[1:] &= at[1:] != at[:-1]   # ties collapse
    at = at[keep]
    below = np.cumsum(np.bincount(at + 1, minlength=U))   # edges below each rank
    return below.astype(np.int32)[rank], len(at) + 1, at


def rank_column(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one sort of a continuous column: its sorted distinct values, a
    zero among them made ``+0.0``, and each row's rank among them, in the
    narrowest unsigned dtype that holds it. Such ranks may be gathered and
    counted, not computed with (``uint8 * C`` wraps): arithmetic reads the
    intp ranks of ``subset_ranks``."""
    distinct, rank = np.unique(values, return_inverse=True)
    return distinct + 0.0, rank.astype(np.min_scalar_type(max(len(distinct) - 1, 0)))


def column_ranks(dataset: WeightedDataset, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``rank_column`` of the dataset's column j, sorted on first use and
    kept in ``dataset.rank_memo``."""
    memo = dataset.rank_memo[j]
    if not memo:
        memo.append(rank_column(dataset.columns[j]))
    return memo[0]


def subset_ranks(distinct: np.ndarray, rank: np.ndarray,
                 rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
    """The (distinct, intp rank) of the rows ``rows`` of a column given as
    ``rank_column`` gives it, without a sort: the distinct values the rows
    hold, and each row's rank among them."""
    sub = rank[rows]
    present = np.bincount(sub, minlength=len(distinct)).astype(bool)
    return distinct[present], (np.cumsum(present) - 1)[sub]


def bin_ranks(distinct: np.ndarray, rank: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """A column given as its sorted ``distinct`` values and each row's
    ``rank``, binned by ``rank_codes``: its int32 codes and its edges."""
    codes, _, edge_ranks = rank_codes(rank, len(distinct), bins)
    return codes, distinct[edge_ranks]


def smoothed_priors(class_mass: np.ndarray, total: float | np.ndarray, k: float) -> np.ndarray:
    """Class priors over (..., C) class masses: class mass over ``total``,
    switching to add-k over classes only where some class has no mass, so
    the unsmoothed ratios stay exact in the common case. A zero total with
    k = 0 gives probability 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        probs = np.where(total > 0, class_mass / total, 0.0)
    if k > 0:
        missing = class_mass.min(axis=-1, keepdims=True) <= 0
        probs = np.where(missing, (class_mass + k) / (total + k * class_mass.shape[-1]), probs)
    return probs


def smoothed_conditionals(counts: np.ndarray, class_mass: np.ndarray, k: float) -> np.ndarray:
    """Add-k conditionals over (..., C, V) weighted count tables (one
    table, or one per cross-validation fold):
    P(value | class) = (weight of (value, class) + k) / (class mass + k*V),
    V the table width. A class with no mass under k = 0 gets probability 0."""
    denom = class_mass[..., None] + k * counts.shape[-1]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, (counts + k) / denom, 0.0)


def value_count(spec, edges: np.ndarray) -> int:
    """V, the codes an attribute takes: its domain size, or its bin count."""
    return len(spec.domain) if spec.is_discrete else len(edges) + 1


def fit_codes(schema: Schema, codes, edges, labels: np.ndarray, weights: np.ndarray,
              k: float) -> "NaiveBayesModel":
    """The one fit: priors are class mass over ``weights.sum()`` and each
    attribute's table holds add-k conditionals over its codes (symbol
    codes, or bin codes under its ``edges``), with k in absolute weight
    units."""
    C = schema.n_classes
    cw = np.bincount(labels, weights=weights, minlength=C)
    cond = []
    for spec, code, attr_edges in zip(schema.attributes, codes, edges):
        V = value_count(spec, attr_edges)
        counts = np.bincount(labels * V + code, weights=weights, minlength=C * V)
        cond.append(smoothed_conditionals(counts.reshape(C, V), cw, k))
    return NaiveBayesModel(schema, smoothed_priors(cw, weights.sum(), k), cond, edges, k, cw)


class NaiveBayesModel:
    """A fitted naive-Bayes classifier: its schema plus plain arrays (see
    the module docstring). ``class_weights`` and ``smoothing_k`` fix the
    floor k / (class mass + k*V) scored by values never seen at fit time.

    Immutable once fitted; safe to share across threads. ``predict_dataset``
    and friends align any dataset with a structurally identical schema to
    this model's symbol coding, so permissively extended domains still
    classify (unknown symbols fall back to the smoothing floor).
    """

    FORMAT = "nb-model/1"
    model_id = "nb"

    def __init__(self, schema: Schema, priors, cond, edges, smoothing_k: float, class_weights):
        self.schema = schema
        self.priors = np.asarray(priors, dtype=np.float64)
        self.cond = [np.asarray(t, dtype=np.float64) for t in cond]
        self.edges = [np.asarray(e, dtype=np.float64) for e in edges]
        self.smoothing_k = smoothing_k
        self.class_weights = np.asarray(class_weights, dtype=np.float64)
        C = schema.n_classes
        shapes = [(C, value_count(spec, e)) for spec, e in zip(schema.attributes, self.edges)]
        if ([t.shape for t in self.cond] != shapes or len(self.edges) != schema.n_attributes
                or self.priors.shape != (C,) or self.class_weights.shape != (C,)):
            raise SchemaError("model arrays do not match its schema: tables must be C x V")
        self.classes = schema.class_names
        self.schema_hash = schema.structural_hash()
        with np.errstate(divide="ignore", invalid="ignore"):   # from_dict rejects p < 0
            self._log_priors = np.log(self.priors)
            # one (V+1, C) log table per attribute; its last row is the
            # unseen floor, which code -1 (and code V) reads
            self._log_tables = [
                np.log(np.vstack([t.T, smoothed_conditionals(
                    np.zeros_like(t), self.class_weights, smoothing_k)[:, 0]]))
                for t in self.cond
            ]

    # -- encoding ----------------------------------------------------------

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self.schema.attribute_names

    @property
    def attribute_count(self) -> int:
        return self.schema.n_attributes

    def encode_example(self, example: Example) -> np.ndarray:
        """Codes per model attribute; -1 marks an unseen discrete symbol."""
        if len(example.values) != self.schema.n_attributes:
            raise SchemaError("example does not conform to the model schema")
        codes = np.empty(self.attribute_count, dtype=np.int64)
        for i, (spec, e, v) in enumerate(zip(self.schema.attributes, self.edges, example.values)):
            if spec.is_discrete:
                codes[i] = spec.domain.index(str(v)) if str(v) in spec.domain else -1
            else:
                codes[i] = int(np.searchsorted(e, float(v), side="left"))
        return codes

    def encode_dataset(self, dataset: WeightedDataset, rows: np.ndarray | slice = slice(None)):
        """Lazily, one attribute at a time, the code column of each model
        attribute for ``rows`` (default all), aligned to this model's coding:
        a continuous value's by ``bin_codes``, a symbol's by its index in
        the model's domain."""
        if dataset.schema.structural_hash() != self.schema_hash:
            raise SchemaError("dataset schema does not match the model schema")

        def column(spec, e, data_spec, col):
            if not spec.is_discrete:
                return bin_codes(col[rows], e)
            model_index = {s: j for j, s in enumerate(spec.domain)}
            trans = np.array([model_index.get(s, -1) for s in data_spec.domain], dtype=np.int64)
            return trans[col[rows]]

        return map(column, self.schema.attributes, self.edges, dataset.schema.attributes,
                   dataset.columns)

    # -- scoring -----------------------------------------------------------

    def log_scores(self, codes, attr_weights: np.ndarray | None = None,
                   n: int | None = None) -> np.ndarray:
        """(n, C) unnormalised log scores of one code column per attribute
        (codes in [-1, V], added in attribute order); ``attr_weights``
        exponentiates each conditional (weight 0 skips the attribute). A
        model with no attributes has no column to count rows from: give ``n``."""
        scores = None
        for i, (table, code) in enumerate(zip(self._log_tables, codes)):
            if scores is None:
                scores = np.tile(self._log_priors, (len(code), 1))
            w = 1.0 if attr_weights is None else float(attr_weights[i])
            if w != 0.0:
                scores += np.take(w * table, code, axis=0)
        return np.tile(self._log_priors, (n, 1)) if scores is None else scores

    def predict_dataset(self, dataset: WeightedDataset) -> np.ndarray:
        """Argmax class index per example (ties: first class in order)."""
        scores = self.log_scores(self.encode_dataset(dataset), n=dataset.n)
        return np.argmax(scores, axis=1)

    def posteriors_dataset(self, dataset: WeightedDataset) -> np.ndarray:
        """(n, C) normalised posteriors."""
        return _normalise_rows(self.log_scores(self.encode_dataset(dataset), n=dataset.n))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """The ``nb-model/1`` document: ``classes`` and ``attributes``
        restate ``schema``, each attribute with its edges and table."""
        schema = _schema_to_dict(self.schema)
        return {
            "format": self.FORMAT,
            "model_id": self.model_id,
            "schema_hash": self.schema_hash,
            "classes": list(self.classes),
            "smoothing_k": self.smoothing_k,
            "class_weights": self.class_weights.tolist(),
            "priors": self.priors.tolist(),
            "attributes": [dict(a, edges=e.tolist(), cond=table.tolist())
                           for a, e, table in zip(schema["attributes"], self.edges, self.cond)],
            "schema": schema,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NaiveBayesModel":
        if not isinstance(doc, dict) or doc.get("format") != cls.FORMAT:
            raise DataFormatError(f"not a {cls.FORMAT} document")
        schema = _schema_from_dict(doc["schema"])
        attrs = doc["attributes"]
        if _schema_from_dict({"classes": doc["classes"], "attributes": attrs}) != schema:
            raise DataFormatError("model attributes or classes disagree with its schema")
        model = cls(schema, doc["priors"], [a["cond"] for a in attrs],
                    [a["edges"] for a in attrs], doc["smoothing_k"], doc["class_weights"])
        model.model_id = doc.get("model_id", "nb")
        model._check_fitted()
        return model

    def _check_fitted(self) -> None:
        """Raise ``DataFormatError`` unless a fit could make these arrays:
        edges finite and strictly increasing; k and class masses finite and
        >= 0; priors and table rows finite, >= 0 and summing to 1 within
        1e-9, a row summing to 0 only where k = 0 left its class no mass."""
        k, cw = self.smoothing_k, self.class_weights
        if not (math.isfinite(k) and k >= 0 and np.all(np.isfinite(cw) & (cw >= 0))):
            raise DataFormatError("smoothing_k and class_weights must be finite and >= 0")
        if not all(np.all(np.isfinite(e)) and np.all(np.diff(e) > 0) for e in self.edges):
            raise DataFormatError("bin edges must be finite and strictly increasing")
        for p, may_be_0 in [(self.priors, False), *((t, (cw == 0) & (k == 0)) for t in self.cond)]:
            total = p.sum(axis=-1)
            if not (np.all(np.isfinite(p) & (p >= 0))
                    and np.all((np.abs(total - 1) <= 1e-9) | (may_be_0 & (total == 0)))):
                raise DataFormatError("priors and table rows must be probabilities summing to 1")


def _schema_to_dict(schema: Schema) -> dict:
    return {
        "classes": list(schema.class_names),
        "attributes": [
            {"name": a.name, "kind": a.kind, "domain": list(a.domain)}
            for a in schema.attributes
        ],
    }


def _schema_from_dict(doc: dict) -> Schema:
    """The schema that a document's ``classes`` and ``attributes`` name
    (other keys of an attribute entry are ignored); a domain must hold
    distinct strings."""
    attrs = []
    for a in doc["attributes"]:
        domain = tuple(a["domain"])
        if not all(isinstance(v, str) for v in domain) or len(set(domain)) != len(domain):
            raise DataFormatError(f"attribute {a['name']!r}: domain symbols must be "
                                  "distinct strings")
        attrs.append(AttributeSpec(a["name"], a["kind"], domain))
    return Schema(tuple(attrs), tuple(doc["classes"]))


def fit_naive_bayes(dataset: WeightedDataset, k: float = SMOOTHING_K,
                    bins: int = BINS) -> NaiveBayesModel:
    """Bin and fit one dataset with :func:`fit_codes`.

    ``k`` is expressed in units of average example weight, so smoothing
    strength does not depend on the overall weight scale: on uniformly
    weighted data the fit is exactly the classic add-k estimate from
    counts, whether the weights are 1/n or 1.
    """
    check_fit_settings(k, bins)
    total = dataset.total_weight
    if total <= 0:
        raise TrainingError("cannot estimate priors: zero total weight")
    k_eff = k * total / dataset.n
    binned = [(col, np.empty(0)) if spec.is_discrete
              else bin_ranks(*column_ranks(dataset, j), bins)
              for j, (spec, col) in enumerate(zip(dataset.schema.attributes, dataset.columns))]
    model = fit_codes(dataset.schema, [code for code, _ in binned], [e for _, e in binned],
                      dataset.labels, dataset.weights, k_eff)
    if k_eff <= 0 and model.class_weights.min() <= 0:
        zero = dataset.schema.class_names[int(np.argmin(model.class_weights))]
        raise TrainingError(f"class {zero!r} has zero weight and smoothing is off (k=0)")
    return model


def _normalise_rows(log_scores: np.ndarray) -> np.ndarray:
    m = log_scores.max(axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(m[:, 0]))
    if bad.size:
        raise TrainingError(
            f"all class scores are zero for example index {int(bad[0])} "
            "(smoothing k=0 left no mass); use k > 0"
        )
    p = np.exp(log_scores - m)
    return p / p.sum(axis=1, keepdims=True)


def classify_nb(example: Example, model: NaiveBayesModel) -> str:
    """Argmax-posterior class; ties go to the earlier class in schema order.
    The per-example reference that batch ``predict_dataset`` must equal."""
    scores = model.log_scores(model.encode_example(example)[:, None], n=1)[0]
    if not np.isfinite(scores.max()):
        raise TrainingError(
            "all class scores are zero for the given example (k=0); use k > 0"
        )
    return model.classes[int(np.argmax(scores))]


def as_weight_array(attr_weights, names) -> np.ndarray:
    """Attribute weights as a float vector aligned with ``names``; rejects
    a vector of the wrong length and weights that are negative or not
    finite."""
    w = np.asarray(attr_weights, dtype=np.float64)
    if w.shape != (len(names),):
        raise SchemaError("attribute weight vector does not cover the schema")
    if not np.all(np.isfinite(w) & (w >= 0)):
        raise ValueError("attribute weights must be finite and non-negative")
    return w
