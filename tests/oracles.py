"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately written with plain dict/loop arithmetic,
no shared code with the package internals, so a disagreement points at a
real defect rather than a shared bug.
"""

import math


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


def gain_continuous(column, labels, weights, classes):
    """Exhaustive search over all midpoints between consecutive distinct
    values; returns (best gain, best threshold)."""
    u = sorted(set(column))
    if len(u) < 2:
        return 0.0, None
    total = sum(weights)
    h = entropy_bits(labels, weights, classes)
    best_gain, best_t = -1.0, None
    for a, b in zip(u, u[1:]):
        t = (a + b) / 2.0
        left = [i for i, x in enumerate(column) if x <= t]
        right = [i for i, x in enumerate(column) if x > t]
        wl = sum(weights[i] for i in left)
        gain = h
        gain -= (wl / total) * entropy_bits(
            [labels[i] for i in left], [weights[i] for i in left], classes
        )
        gain -= ((total - wl) / total) * entropy_bits(
            [labels[i] for i in right], [weights[i] for i in right], classes
        )
        if gain > best_gain + 1e-15:
            best_gain, best_t = gain, t
    return best_gain, best_t


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
