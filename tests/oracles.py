"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written with plain dict/loop arithmetic
or plain numpy, no shared code with the package internals, so a
disagreement points at a real defect rather than a shared bug. The
equal-frequency binning is the ``np.quantile`` version the package's rank
kernel replaced, and the capped threshold cuts the row-sorted version its
histogram of ranks replaced. A cut's class masses are sums under boolean
masks over the rows sorted by value, not read from a cumulative histogram
of ranks as the trees read them. The one exception is the last section:
the NB-tree's per-child split search, kept as the reference its rank
kernel must equal bit for bit.
"""

import math

import numpy as np

from nbtree_ids.nbtree import SplitUtility, _NodeView, _mix64, _path_salt
from nbtree_ids.probability import smoothed_conditionals, smoothed_priors, value_count
from nbtree_ids.tree import _BEST_CUTS, _THRESHOLD_CAP, split_rows


# -- naive Bayes by explicit enumeration ---------------------------------------


def nb_reference(rows, labels, weights, classes, domains, k):
    """Priors, conditional tables and normalised posteriors by direct
    counting. ``rows`` holds tuples of discrete symbols; ``k`` is the
    absolute add-k constant applied to raw weight sums."""
    total = sum(weights)
    cw = {c: 0.0 for c in classes}
    for lab, w in zip(labels, weights):
        cw[lab] += w
    if min(cw.values()) <= 0 and k > 0:
        priors = {c: (cw[c] + k) / (total + k * len(classes)) for c in classes}
    else:
        priors = {c: cw[c] / total for c in classes}
    cond = []
    for j, dom in enumerate(domains):
        table = {}
        for c in classes:
            for v in dom:
                mass = sum(
                    w for r, lab, w in zip(rows, labels, weights)
                    if lab == c and r[j] == v
                )
                table[(c, v)] = (mass + k) / (cw[c] + k * len(dom))
        cond.append(table)
    posteriors = []
    for r in rows:
        joint = {}
        for c in classes:
            p = priors[c]
            for j in range(len(domains)):
                p *= cond[j][(c, r[j])]
            joint[c] = p
        z = sum(joint.values())
        posteriors.append({c: joint[c] / z for c in classes})
    return priors, cond, posteriors


def nb_joint_scores(row, priors, cond, classes):
    """Unnormalised direct-product scores for one value tuple."""
    return {
        c: priors[c] * math.prod(cond[j][(c, row[j])] for j in range(len(cond)))
        for c in classes
    }


def argmax_class(scores, classes):
    """First class (in the given order) attaining the maximum score."""
    best = max(scores[c] for c in classes)
    for c in classes:
        if scores[c] == best:
            return c
    raise AssertionError("unreachable")


# -- equal-frequency binning by np.quantile -------------------------------------


def equal_frequency_edges(values, bins):
    """Interior cut points of equal-frequency binning: the "lower"
    quantiles at i / bins, i = 1 .. bins - 1. Edges are data values; ties
    collapse duplicated edges and an edge at the maximum is dropped, so a
    constant (or empty) column yields no edges (a single bin)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or bins == 1:
        return np.empty(0)
    qs = np.quantile(values, np.arange(1, bins) / bins, method="lower")
    edges = np.unique(qs)
    return edges[edges < values.max()]


def bin_codes(values, edges):
    """Map values to bin indices: bin i covers (edge[i-1], edge[i]]."""
    return np.searchsorted(edges, values, side="left").astype(np.int32)


def unique_ranks(values):
    """The sorted distinct values of a column, a zero among them ``+0.0``,
    and each value's rank among them, by ``np.unique`` of the column alone
    (which keeps either zero of a column holding both)."""
    distinct, rank = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True)
    return np.where(distinct == 0.0, 0.0, distinct), rank


# -- entropy and information gain by direct summation ---------------------------


def entropy_bits(labels, weights, classes):
    total = sum(weights)
    h = 0.0
    for c in classes:
        p = sum(w for lab, w in zip(labels, weights) if lab == c) / total
        if p > 0:
            h += p * math.log2(1.0 / p)
    return h


def gain_discrete(column, labels, weights, classes):
    total = sum(weights)
    h = entropy_bits(labels, weights, classes)
    remainder = 0.0
    for v in sorted(set(column)):
        idx = [i for i, x in enumerate(column) if x == v]
        wv = sum(weights[i] for i in idx)
        remainder += (wv / total) * entropy_bits(
            [labels[i] for i in idx], [weights[i] for i in idx], classes
        )
    return h - remainder


def mass_entropy(masses):
    """Entropy in bits of a list of class masses (0 when they sum to 0)."""
    total = sum(masses)
    return sum(m / total * math.log2(total / m) for m in masses if m > 0)


def cut_entropies(column, labels, weights, classes, thresholds):
    """The class entropy left by each cut ``x <= t``: each side's entropy
    times its share of the mass, summed. Each side's class masses are sums
    under boolean masks over the rows sorted by value."""
    order = np.argsort(np.asarray(column, dtype=np.float64), kind="stable")
    x = np.asarray(column, dtype=np.float64)[order]
    w = np.asarray(weights, dtype=np.float64)[order]
    in_class = [np.asarray(labels)[order] == c for c in classes]
    total = float(w.sum())
    out = []
    for t in thresholds:
        left = x <= t
        h = 0.0
        for side in (left, ~left):
            masses = [float(w[side & member].sum()) for member in in_class]
            h += sum(masses) / total * mass_entropy(masses)
        out.append(h)
    return out


def gain_continuous(column, labels, weights, classes, thresholds=None):
    """Exhaustive search over ``thresholds``, by default all midpoints
    between consecutive distinct values; returns (best gain, best
    threshold)."""
    u = sorted(set(column))
    if thresholds is None:
        thresholds = [(a + b) / 2.0 for a, b in zip(u, u[1:])]
    if len(thresholds) == 0:
        return 0.0, None
    h = entropy_bits(labels, weights, classes)
    best_gain, best_t = -1.0, None
    for t, cut_h in zip(thresholds, cut_entropies(column, labels, weights, classes, thresholds)):
        gain = h - cut_h
        if gain > best_gain + 1e-15:
            best_gain, best_t = gain, t
    return best_gain, best_t


def threshold_candidates(values, weights):
    """The trees' candidate cuts of a continuous column, computed over its
    rows sorted by value: midpoints between consecutive distinct values,
    or, past ``_THRESHOLD_CAP`` gaps, between the values of the first rows
    whose cumulative weight share reaches each level i / (cap + 1)."""
    values = np.asarray(values, dtype=np.float64)
    distinct = np.unique(values)
    if distinct.size < 2:
        return np.empty(0)
    cuts = distinct
    if distinct.size - 1 > _THRESHOLD_CAP:
        levels = np.arange(1, _THRESHOLD_CAP + 1) / (_THRESHOLD_CAP + 1)
        order = np.argsort(values, kind="stable")
        cw = np.cumsum(np.asarray(weights, dtype=np.float64)[order])
        cw /= cw[-1]
        idx = np.clip(np.searchsorted(cw, levels, side="left"), 0, len(values) - 1)
        cuts = np.unique(values[order][idx])
        if cuts.size < 2:
            cuts = np.unique(distinct[np.linspace(0, distinct.size - 1,
                                                  _THRESHOLD_CAP + 1).astype(int)])
    mid = (cuts[1:] + cuts[:-1]) / 2.0
    return np.where(mid < cuts[1:], mid, cuts[:-1])


def cut_entropy_masses(column, labels, weights, classes, thresholds):
    """The class entropy left by each cut ``x <= t`` times the column's
    mass: n log2 n for each side's mass n, less m log2 m for each of its
    class masses m (masked sums over the rows sorted by value), added one
    by one in ascending order, so equal masses give equal sums."""
    order = np.argsort(np.asarray(column, dtype=np.float64), kind="stable")
    x = np.asarray(column, dtype=np.float64)[order]
    w = np.asarray(weights, dtype=np.float64)[order]
    in_class = [np.asarray(labels)[order] == c for c in classes]
    out = []
    for t in thresholds:
        left = x <= t
        sides, masses = [], []
        for side in (left, ~left):
            side_masses = [float(w[side & member].sum()) for member in in_class]
            sides.append(sum(side_masses))
            masses += side_masses
        terms = np.array(sides + masses)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(terms > 0, terms * np.log2(terms), 0.0)
        terms[len(sides):] *= -1.0
        h = 0.0
        for term in sorted(terms.tolist()):
            h += term
        out.append(h)
    return out


def best_cuts(column, labels, weights, classes):
    """The NB-tree's cuts of a continuous column: the ``_BEST_CUTS`` of
    ``threshold_candidates`` with the least ``cut_entropy_masses``, ties
    to the lower threshold, in ascending order."""
    thresholds = threshold_candidates(column, weights)
    h = cut_entropy_masses(column, labels, weights, classes, thresholds)
    kept = sorted(sorted(range(len(thresholds)), key=lambda i: (h[i], i))[:_BEST_CUTS])
    return thresholds[np.array(kept, dtype=np.int64)]


# -- a tiny unweighted ID3 for tree equivalence checks ---------------------------


def id3_unweighted(rows, labels, classes, domains, depth=1):
    """Plain count-based ID3 over discrete attributes only. Returns nested
    tuples: ('leaf', label) or ('split', attr_index, {value: subtree})."""
    counts = {c: labels.count(c) for c in classes}
    majority = max(classes, key=lambda c: (counts[c],))  # ties: class order wins
    for c in classes:
        if counts[c] == len(labels):
            return ("leaf", c)
    best_j, best_gain = None, 1e-12
    for j, dom in enumerate(domains):
        if dom is None:  # consumed
            continue
        gain = gain_discrete([r[j] for r in rows], labels, [1.0] * len(labels), classes)
        if gain > best_gain + 1e-12:
            best_j, best_gain = j, gain
    if best_j is None:
        return ("leaf", majority)
    branches = {}
    seen = sorted(set(r[best_j] for r in rows), key=list(domains[best_j]).index)
    child_domains = list(domains)
    child_domains[best_j] = None
    for v in seen:
        idx = [i for i, r in enumerate(rows) if r[best_j] == v]
        branches[v] = id3_unweighted(
            [rows[i] for i in idx], [labels[i] for i in idx],
            classes, child_domains, depth + 1,
        )
    return ("split", best_j, branches)


def tree_to_tuple(node, schema):
    """Convert a package DecisionTree node to the oracle tuple shape."""
    if node.is_leaf:
        return ("leaf", node.payload)
    j = schema.attribute_index(node.attribute)
    return ("split", j, {
        sym: tree_to_tuple(child, schema) for sym, child in node.children.items()
    })


# -- confusion counting -----------------------------------------------------------


def confusion_counts(truth, predicted, classes):
    mat = {(t, p): 0 for t in classes for p in classes}
    for t, p in zip(truth, predicted):
        mat[(t, p)] += 1
    return mat


def fp_rate(mat, classes, c):
    denom = sum(mat[(t, p)] for t in classes for p in classes if t != c)
    hits = sum(mat[(t, c)] for t in classes if t != c)
    return None if denom == 0 else hits / denom * 100.0


# -- the NB-tree split search, one candidate child at a time ----------------------
#
# Every candidate child is re-encoded on its own rows with the quantile
# binning above (``reference_view``) and cross-validated alone, with its
# own fold assignment per class. A continuous attribute is cut only at its
# ``best_cuts`` above. It reads the training data and knobs of a
# ``nbtree._BuildContext`` and shares its fold hash, estimators and row
# partition, each pinned by the oracles above or by its own tests, so any
# difference from the package's search is in the rank binning, the fold
# assignment or the order of the sums.


def reference_view(ctx, rows):
    """The node view of ``rows``, each continuous column binned by
    ``equal_frequency_edges`` on those rows (no ranks)."""
    edges = [np.empty(0) if spec.is_discrete
             else equal_frequency_edges(col[rows], ctx.params.bins)
             for spec, col in zip(ctx.schema.attributes, ctx.raw)]
    codes = [col[rows] if spec.is_discrete else bin_codes(col[rows], e)
             for spec, col, e in zip(ctx.schema.attributes, ctx.raw, edges)]
    return _NodeView(rows, codes, edges, None, ctx.labels[rows], ctx.weights[rows])


def fold_assign_by_class(labels, keys, folds):
    """Round-robin folds within each class, ordered by hash key."""
    fold = np.empty(len(keys), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        order = np.argsort(keys[idx])
        fold[idx[order]] = np.arange(len(idx)) % folds
    return fold


def cv_accuracy(ctx, view, salt):
    """Stratified k-fold cross-validated, weight-averaged NB accuracy of one
    encoded view; folds keyed by (global row id, salt)."""
    m = len(view.rows)
    if m == 0:
        return 0.0
    lab, w = view.labels, view.weights
    keys = _mix64(view.rows.astype(np.uint64) ^ salt)
    F, C, k = ctx.params.folds, ctx.schema.n_classes, ctx.k
    f = fold_assign_by_class(lab, keys, F)
    cw_fold = np.bincount(f * C + lab, weights=w, minlength=F * C).reshape(F, C)
    cw_train = cw_fold.sum(axis=0)[None, :] - cw_fold
    with np.errstate(divide="ignore"):
        scores = np.log(smoothed_priors(cw_train, cw_train.sum(axis=-1, keepdims=True), k))[f]
    fc = f * C + lab
    for j, wa in enumerate(ctx.attr_w):
        if wa == 0.0:
            continue
        V = value_count(ctx.schema.attributes[j], view.edges[j])
        code = view.codes[j]
        cnt = np.bincount(fc * V + code, weights=w, minlength=F * C * V).reshape(F, C, V)
        train_cnt = cnt.sum(axis=0)[None, :, :] - cnt
        with np.errstate(divide="ignore"):
            logc = np.log(smoothed_conditionals(train_cnt, cw_train, k))
        table = logc.transpose(0, 2, 1).reshape(F * V, C)
        scores += wa * np.take(table, f * V + code, axis=0)
    pred = np.argmax(scores, axis=1)
    total = w.sum()
    return float(min(1.0, max(0.0, (w * (pred == lab)).sum() / total)))


def split_utility_value(ctx, view, j, salt, node_accuracy):
    """Best (utility, threshold) for attribute j, over ``best_cuts`` when
    it is continuous, each child re-binned and cross-validated alone;
    children lighter than one example's mass, and attributes that give the
    node one child, score ``node_accuracy``."""
    spec = ctx.schema.attributes[j]
    if spec.is_discrete:
        code = view.codes[j]
        if code.min() == code.max():
            return node_accuracy, None
        candidates = [None]
    else:
        thr = best_cuts(ctx.raw[j][view.rows], view.labels, view.weights,
                        range(ctx.schema.n_classes))
        if thr.size == 0:
            return node_accuracy, None
        candidates = list(thr)
    total = float(view.weights.sum())
    best_u, best_t = -1.0, None
    for t in candidates:
        keys = spec.domain if t is None else ("le", "gt")
        u = 0.0
        for key, rows in zip(keys, split_rows(ctx.raw[j], view.rows, t, spec.domain)):
            wch = float(ctx.weights[rows].sum())
            if wch <= 0:
                continue
            if wch < ctx.example_mass:
                acc = node_accuracy
            else:
                acc = cv_accuracy(ctx, reference_view(ctx, rows),
                                  salt ^ _path_salt(f"{j}:{key}:{t}"))
            u += (wch / total) * acc
        u = min(1.0, max(0.0, u))
        if u > best_u:
            best_u, best_t = u, t
    return best_u, (None if best_t is None else float(best_t))


def best_split(ctx, view, salt):
    """The node's split decision, with every utility from
    ``split_utility_value``."""
    if float(view.weights.sum()) < ctx.params.min_split_examples * ctx.example_mass:
        return None
    node_acc = cv_accuracy(ctx, view, salt)
    node_err = 1.0 - node_acc
    if node_err <= 0:
        return None
    best = None
    for j, spec in enumerate(ctx.schema.attributes):
        u, t = split_utility_value(ctx, view, j, salt, node_acc)
        if best is None or u > best.utility:
            best = SplitUtility(spec.name, u, t)
    if best is None or (node_err - (1.0 - best.utility)) / node_err <= ctx.params.significance:
        return None
    return best
