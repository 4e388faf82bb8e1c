"""Regression tree: MSE-splitting growth, weakest-link cost-complexity pruning,
cross-validated size selection and variable importance."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# A split is admitted only if it beats this share of the parent's SSE, so
# floating-point noise on a pure node can never manufacture a split. A node
# whose SSE is negligible against the response magnitude is pure outright.
REDUCTION_TOL_REL = 1e-12
PURITY_TOL_REL = 1e-24


@dataclass(frozen=True)
class Table:
    """Feature matrix with per-column kinds plus the numeric response."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d array")
        if len(y) != x.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[1] != len(self.names) or len(self.names) != len(self.kinds):
            raise ValueError("names/kinds must match the number of columns")
        for kind in self.kinds:
            if kind not in (NUMERIC, CATEGORICAL):
                raise ValueError(f"unknown column kind {kind!r}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def n_vars(self) -> int:
        return self.x.shape[1]

    def subset(self, rows: np.ndarray) -> "Table":
        return Table(self.names, self.kinds, self.x[rows], self.y[rows])


def table_from_arrays(x, y, names=None, kinds=None) -> Table:
    x = np.asarray(x, dtype=float)
    m = x.shape[1]
    if names is None:
        names = tuple(f"v{i}" for i in range(m))
    if kinds is None:
        kinds = (NUMERIC,) * m
    return Table(tuple(names), tuple(kinds), x, np.asarray(y, dtype=float))


@dataclass(frozen=True)
class SplitRule:
    var: int
    threshold: float | None = None
    left_levels: frozenset | None = None

    def mask(self, col: np.ndarray) -> np.ndarray:
        """True where a value of this rule's variable goes to the left child."""
        if np.isnan(col).any():
            raise ValueError(f"missing value for split variable {self.var}")
        if self.threshold is not None:
            return col < self.threshold
        return np.isin(col, list(self.left_levels))

    def describe(self, names) -> str:
        if self.threshold is not None:
            return f"{names[self.var]} < {self.threshold:g}"
        levels = ",".join(f"{v:g}" for v in sorted(self.left_levels))
        return f"{names[self.var]} in {{{levels}}}"


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """A grown tree's nodes in preorder, each before its left then its right
    subtree, as parallel lists, read at one step alpha of its weakest-link
    pruning. A node is a leaf there if it was grown as one or its pruning
    alpha (`gone`) is at most `alpha`: at -inf nothing is pruned. The trees
    of a pruning sequence share one set of lists."""

    rule: list  # each node's split, None at a grown leaf
    right: list[int]  # each split's right child; its left child is the next node
    mean: list[float]
    sse: list[float]
    rows: list[np.ndarray]  # each node's rows of `table`
    gone: list[float]  # the step alpha at which each node stops being internal
    table: Table
    minsplit: int
    minbucket: int
    alpha: float

    def improvement(self, i: int) -> float:
        """The SSE reduction of the split at internal node `i`: its SSE less
        its children's, the floats `_best_splits` subtracts, in its order."""
        return self.sse[i] - self.sse[i + 1] - self.sse[self.right[i]]

    def is_leaf(self, i: int) -> bool:
        return self.rule[i] is None or self.gone[i] <= self.alpha

    def nodes(self) -> list[int]:
        """The indices of this tree's nodes in preorder; sums over them, in
        `training_sse` and importance, depend on this order."""
        out, stack = [], [0]
        while stack:
            i = stack.pop()
            out.append(i)
            if not self.is_leaf(i):
                stack += (self.right[i], i + 1)
        return out

    def leaves(self) -> list[int]:
        return [i for i in self.nodes() if self.is_leaf(i)]

    def internal_nodes(self) -> list[int]:
        return [i for i in self.nodes() if not self.is_leaf(i)]

    def training_sse(self) -> float:
        return sum(self.sse[i] for i in self.leaves())

    def n_leaves(self) -> int:
        return len(self.leaves())

    def used_variables(self) -> set[int]:
        return {self.rule[i].var for i in self.internal_nodes()}

    def _paths(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each record's path from the root to its leaf in this tree, as its
        nodes' alphas (`gone`; -inf at a grown leaf and past the path's end)
        and means, by depth: its leaf at an alpha is the first node whose
        alpha is at most that. A missing routed value is an error."""
        gone, mean, stack = [], [], [(0, np.arange(len(x)), 0)]
        while stack:
            i, rows, depth = stack.pop()
            if depth == len(gone):
                gone.append(np.full(len(x), -np.inf))
                mean.append(np.zeros(len(x)))
            gone[depth][rows] = -np.inf if self.rule[i] is None else self.gone[i]
            mean[depth][rows] = self.mean[i]
            if not self.is_leaf(i):
                left = self.rule[i].mask(x[rows, self.rule[i].var])
                for child, reached in ((self.right[i], rows[~left]), (i + 1, rows[left])):
                    if len(reached):
                        stack.append((child, reached, depth + 1))
        return np.column_stack(gone), np.column_stack(mean)

    def predict(self, x) -> np.ndarray:
        """Leaf means for one record or a matrix of records; a missing value
        on a routed variable is an error (no surrogate routing at prediction
        time)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.table.n_vars:
            raise ValueError(f"record must have {self.table.n_vars} values")
        gone, mean = self._paths(x)
        return mean[np.arange(len(x)), np.argmax(gone <= self.alpha, axis=1)]

    def leaf_signature(self) -> frozenset:
        """Partition of the training rows into leaves, for structural comparison."""
        return frozenset(frozenset(self.rows[i].tolist()) for i in self.leaves())

    def to_dict(self) -> dict:
        names = self.table.names
        built = {}
        for i in reversed(self.nodes()):  # children before their parent
            out = {"count": len(self.rows[i]), "mean": self.mean[i], "sse": self.sse[i]}
            if not self.is_leaf(i):
                rule = self.rule[i]
                out.update(split=rule.describe(names), variable=names[rule.var],
                           improvement=self.improvement(i),
                           left=built.pop(i + 1), right=built.pop(self.right[i]))
            built[i] = out
        return {"minsplit": self.minsplit, "minbucket": self.minbucket,
                "n_leaves": self.n_leaves(), "root": built[0]}


def _sse(values: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The mean of `values`, the values centred on it and their SSE, with the
    arithmetic of `ndarray.mean` and `np.sum` without their wrappers."""
    mean = np.add.reduce(values) / len(values)
    centred = values - mean
    return float(mean), centred, float(np.add.reduce(centred * centred))


def _is_pure(y: np.ndarray, sse: float) -> bool:
    return sse <= PURITY_TOL_REL * max(float(np.dot(y, y)), 1e-300)


def _subset_sums(per_level: np.ndarray) -> np.ndarray:
    """Sum of `per_level` (along its last axis) over the left levels of every
    cut of a categorical variable: the proper subsets of its levels in
    canonical order, each partition listed once with the lowest level pinned
    to the left side, so a subset's index is its bit pattern over the other
    levels."""
    sums = per_level[..., :1]
    for j in range(1, per_level.shape[-1]):
        sums = np.concatenate((sums, sums + per_level[..., j:j + 1]), axis=-1)
    # the last bit pattern puts every level on the left
    return sums[..., :-1]


def _numeric_cuts(block: np.ndarray, sizes: np.ndarray):
    """Stable row order of each column of each node of `block`, and the node,
    column, threshold and left count of every cut, by node, column, then
    threshold.

    `block` is (nodes, width, columns): node i's values in its first
    `sizes[i]` slots, NaN in the rest, which a stable sort keeps after the
    node's own values, NaN included. Cuts lie midway between a column's
    sorted distinct values (NaN pairs are one value, as in `np.unique`).
    Rows sorted by the column, NaN last, put the left side of a cut,
    `col < threshold`, on a prefix of that order. Its length, the count of
    values below the threshold, is one past the lower neighbour unless the
    midpoint rounds onto it (adjacent doubles) or overflows to +-inf, and 0
    for a NaN threshold (from a NaN value, or -inf next to inf: `grow`
    refuses NaN values, `best_split` does not).
    """
    order = np.argsort(block, axis=1, kind="stable")
    ranked = np.take_along_axis(block, order, axis=1)
    lower, upper = ranked[:, :-1], ranked[:, 1:]
    inside = np.arange(block.shape[1] - 1) < sizes[:, None] - 1
    cuts = (lower != upper) & ~np.isnan(lower) & inside[:, :, None]
    node, col, pos = np.nonzero(cuts.transpose(0, 2, 1))
    below, above = lower[node, pos, col], upper[node, pos, col]
    # midpoints at cuts only, as repeats of a huge value would overflow; a sum
    # past the largest double still does, to +-inf, which the loop below mends
    with np.errstate(over="ignore"):
        thresholds = (below + above) / 2.0
    n_left = pos + 1
    for i in np.flatnonzero(~((below < thresholds) & (thresholds <= above))):
        t = thresholds[i]
        column = ranked[node[i], :sizes[node[i]], col[i]]
        n_left[i] = 0 if np.isnan(t) else np.searchsorted(column, t)
    return order, node, col, thresholds, n_left


def _pad(table: Table, rows: tuple, weights: tuple) -> tuple:
    """Nodes' `rows` and per-row `weights` padded to the largest node's
    count: the sizes, which slots hold a row, each slot's row and weight (0
    in padding), and every numeric cut (`_numeric_cuts`) as its node,
    variable, threshold, left count and the weights' sum left of it and over
    its node, from one cumulative sum: bit for bit each node's own sums."""
    sizes = np.array([len(r) for r in rows])
    slots = np.arange(sizes.max()) < sizes[:, None]
    at, w = np.zeros(slots.shape, dtype=int), np.zeros(slots.shape, dtype=weights[0].dtype)
    at[slots], w[slots] = np.concatenate(rows), np.concatenate(weights)
    numeric = np.array([var for var, kind in enumerate(table.kinds) if kind == NUMERIC], dtype=int)
    block = table.x[:, numeric][at]
    block[~slots] = np.nan
    order, owner, col, thresholds, n_left = _numeric_cuts(block, sizes)
    prefix = np.zeros((len(rows), slots.shape[1] + 1, len(numeric)), dtype=w.dtype)
    np.cumsum(np.take_along_axis(w[:, :, None], order, axis=1), axis=1, out=prefix[:, 1:])
    return sizes, slots, at, w, (owner, numeric[col], thresholds, n_left,
                                 prefix[owner, n_left, col], prefix[owner, sizes[owner], col])


def _subsets(table: Table, at: np.ndarray, slots: np.ndarray, w: np.ndarray):
    """Per categorical variable of `_pad`ded nodes: the variable, and per
    node every cut's left row count and sum of `w`, and which cuts the node
    lists: the proper subsets of its own levels, in canonical order."""
    for var, kind in enumerate(table.kinds):
        if kind == CATEGORICAL:
            values = table.x[at, var]
            if np.isnan(values[slots]).any():  # each NaN would be a level of its own
                raise ValueError(f"missing value (NaN) in column {table.names[var]!r}")
            levels = np.array(sorted(set(values[slots].tolist())))
            on = (values[:, None, :] == levels[:, None]) & slots[:, None, :]
            per_level = np.count_nonzero(on, axis=2)
            # each node's own levels first, in order: its lowest is pinned left
            rank = np.argsort(per_level == 0, axis=1, kind="stable")
            k = _subset_sums(np.take_along_axis(per_level, rank, axis=1))
            sums = np.add.reduce(np.where(on, w[:, None, :], 0), axis=2)
            proper = (1 << (np.count_nonzero(per_level, axis=1) - 1)) - 1
            yield (var, k, _subset_sums(np.take_along_axis(sums, rank, axis=1)),
                   np.arange(k.shape[1]) < proper[:, None])


def _shortlist_margin(n, y_max, abs_sum, parent_sse):
    """Twice a bound on how far the approximate reduction of a cut and its
    brute-force reduction can each lie from the exact one, for nodes of `n`
    rows with M = max|y| (`y_max`) and A = sum|y - mean| (`abs_sum`).

    With g = (n + 4) eps: mean rounding biases each `_sse` by at most
    B = n (g M)^2, so the exact parent SSE is below P = (1 + g)(parent_sse +
    2B); the brute-force reduction is off by at most 3gP + 4B. The
    difference D between a cut's left sum of the centred response and k/n of
    its total, from prefix sums (numeric) or from sums of per-level sums
    (categorical), adds at most n centred terms either way, so it is off by
    at most E = 2gA, and the approximate reduction n D^2 / (k (n - k)) by at
    most 4 sqrt(2P) E + 4E^2 + gP. That holds for any summation order of the
    node's own terms, zeros added anywhere among them, and A's own rounding
    is far inside the factor of 2: so sums batched over many nodes may feed
    it.
    """
    g = (n + 4) * np.finfo(float).eps
    bias = n * (g * y_max) ** 2
    p_hi = (1 + g) * (parent_sse + 2 * bias)
    d_err = 2 * g * abs_sum
    return 8 * (g * p_hi + bias + np.sqrt(2 * p_hi) * d_err + d_err**2)


def _approx(diff: np.ndarray, k: np.ndarray, n, minbucket: int) -> tuple[np.ndarray, np.ndarray]:
    """The approximate reduction n D^2 / (k (n - k)) of cuts with difference
    D (`diff`) and left count k in nodes of n rows, and which are admissible."""
    # at k = 0 or k = n a numeric difference is exactly 0, and so is approx
    return n * diff**2 / np.maximum(k * (n - k), 1), (k >= minbucket) & (n - k >= minbucket)


def _best_splits(table: Table, nodes: list, minbucket: int) -> list:
    """The best split of each node, given as (rows, y, centred, sse) of a
    node that is not pure: (rule, reduction, mask, left, right), where `mask`
    sends the node's rows left and `left` and `right` are the `_sse` of each
    side, or None when no admissible split reduces the node's SSE.

    One pass serves every node: `_pad` gives every numeric cut's sum of the
    centred response and `_subsets` every categorical cut's. Those values
    only shortlist the cuts within `_shortlist_margin` of each node's best;
    each shortlisted cut is then scored exactly as brute force scores it, on
    its node's rows in their original order, so the winner and its
    reduction are the brute-force ones. Ties break toward the lowest
    variable index, then the lowest threshold (numeric) or the canonical
    subset order (categorical).
    """
    rows, _, centred, parent_sse = zip(*nodes)
    sizes, slots, at, centred, (owner, var, thresholds, n_left, left, total) = \
        _pad(table, rows, centred)
    totals = np.add.reduce(centred, axis=1)
    n = sizes[owner]
    approx, admissible = _approx(left - total * (n_left / n), n_left, n, minbucket)
    best = np.full(len(nodes), -np.inf)
    np.maximum.at(best, owner[admissible], approx[admissible])
    categorical = []  # per variable: its approx and admissible cuts, by node and subset
    for v, k, left, listed in _subsets(table, at, slots, centred):
        n = sizes[:, None]
        subset_approx, subset_ok = _approx(left - totals[:, None] * (k / n), k, n, minbucket)
        subset_ok &= listed
        best = np.maximum(best, np.max(subset_approx, axis=1, where=subset_ok, initial=-np.inf))
        categorical.append((v, subset_approx, subset_ok))
    y_max = np.max(np.abs(table.y[at]), axis=1, where=slots, initial=0)
    with np.errstate(over="ignore", invalid="ignore"):
        floor = best - _shortlist_margin(sizes, y_max, np.add.reduce(np.abs(centred), axis=1),
                                         np.array(parent_sse))
    # non-finite data or overflow: no bound holds, so score every cut
    floor[~np.isfinite(floor)] = -np.inf
    kept = np.flatnonzero(admissible & ~(approx < floor[owner]))
    shortlist = [(owner[kept], var[kept], thresholds[kept])]
    for var, subset_approx, subset_ok in categorical:
        node, bits = np.nonzero(subset_ok & ~(subset_approx < floor[:, None]))
        shortlist.append((node, np.full(len(node), var), bits.astype(float)))
    owner, var, cut = map(np.concatenate, zip(*shortlist))
    # by node, then variable; stable, so each variable's cuts keep their
    # order and unordered (NaN) keys resolve as brute force resolves them
    by_node = np.lexsort((var, owner))

    found = [None] * len(nodes)
    for i, v, c in zip(owner[by_node].tolist(), var[by_node].tolist(), cut[by_node].tolist()):
        rows, y, _, sse = nodes[i]
        values = table.x[rows, v]
        if table.kinds[v] == NUMERIC:
            rule, mask = SplitRule(v, threshold=c), values < c
        else:
            levels = sorted(set(values.tolist()))
            # the lowest level and those of the set bits
            picked = [levels[0]] + [level for j, level in enumerate(levels[1:]) if int(c) >> j & 1]
            rule = SplitRule(v, left_levels=frozenset(picked))
            mask = (values == np.array(picked)[:, None]).any(axis=0)
        # cuts are scored on original-row-order subsets, so that exact ties
        # resolve identically no matter how the data is arranged
        left, right = _sse(y[mask]), _sse(y[~mask])
        reduction = sse - left[2] - right[2]
        if reduction <= sse * REDUCTION_TOL_REL:
            continue
        key = (-reduction, v, c)
        if found[i] is None or key < found[i][0]:
            found[i] = key, (rule, reduction, mask, left, right)
    return [f and f[1] for f in found]


def best_split(table: Table, rows: np.ndarray, minbucket: int) -> tuple[SplitRule, float] | None:
    """Best SSE-reducing split of one node over all variables and admissible
    cut points, by the pass that grows trees (`_best_splits`); None when no
    admissible split reduces the node's SSE."""
    y = table.y[rows]
    _, centred, sse = _sse(y)
    if _is_pure(y, sse):
        return None
    found, = _best_splits(table, [(rows, y, centred, sse)], minbucket)
    return None if found is None else found[:2]


def _grow_together(table: Table, roots: list, minsplit: int, minbucket: int) -> list[RegressionTree]:
    """One tree on each row set of `roots`, all grown level by level: every
    open node of every tree at one depth goes through one split-search pass.
    Each tree reads `table.subset(root)` at -inf, and equals
    `grow(table.subset(root), minsplit, minbucket)` node for node."""
    grown = []  # per node: its tree, rows, mean, SSE and split
    level = []  # the open nodes: (index in grown, (rows, y, centred, sse))

    def add(tree: int, rows: np.ndarray, stats: tuple) -> int:
        mean, centred, sse = stats
        grown.append([tree, rows, mean, sse, None])
        y = table.y[rows]
        if len(rows) >= minsplit and not _is_pure(y, sse):
            level.append((len(grown) - 1, (rows, y, centred, sse)))
        return len(grown) - 1

    for tree, root in enumerate(roots):
        add(tree, root, _sse(table.y[root]))
    while level:
        searched, level = level, []
        found = _best_splits(table, [node for _, node in searched], minbucket)
        for (i, (rows, *_)), split in zip(searched, found):
            if split is not None:
                rule, _, mask, left, right = split
                tree = grown[i][0]
                grown[i][4] = (rule, add(tree, rows[mask], left), add(tree, rows[~mask], right))

    trees = []
    for tree, root in enumerate(roots):
        order, stack = [], [tree]
        while stack:  # each node, then its left subtree, then its right
            i = stack.pop()
            order.append(i)
            split = grown[i][4]
            if split is not None:
                stack += (split[2], split[1])
        place = {i: k for k, i in enumerate(order)}
        local = np.zeros(table.n, dtype=int)  # the tree numbers its rows as its subset does
        local[root] = np.arange(len(root))
        _, rows, mean, sse, splits = map(list, zip(*(grown[i] for i in order)))
        rule = [split[0] if split else None for split in splits]
        right = [place[split[2]] if split else 0 for split in splits]
        trees.append(RegressionTree(
            rule, right, mean, sse, [local[r] for r in rows], _weakest_links(rule, right, sse),
            table.subset(root), minsplit, minbucket, -math.inf))
    return trees


def _controls(table: Table, minsplit: int | None, minbucket: int | None) -> tuple[int, int]:
    """The `minsplit` and `minbucket` that `grow` uses on `table`, which it
    refuses if empty or holding a NaN: a split could not route that row to
    either child."""
    if table.n == 0:
        raise ValueError("cannot grow a tree on an empty table")
    holes = np.isnan(table.x).any(axis=0)
    if holes.any():
        name = table.names[int(np.argmax(holes))]
        raise ValueError(f"missing value (NaN) in column {name!r}")
    if minsplit is None:
        minsplit = max(5, math.ceil(0.1 * table.n))
    if minbucket is None:
        minbucket = max(1, minsplit // 3)
    if minbucket < 1:  # a cut could leave a side empty
        raise ValueError(f"minbucket must be at least 1, got {minbucket}")
    if minsplit < 2 * minbucket:
        raise ValueError(f"minsplit ({minsplit}) must be at least twice minbucket ({minbucket})")
    return minsplit, minbucket


def grow(table: Table, minsplit: int | None = None, minbucket: int | None = None) -> RegressionTree:
    """Partitioning until no admissible SSE-reducing split remains, by
    default with minsplit = max(5, ceil(0.1 n)) and minbucket =
    max(1, minsplit // 3). A NaN anywhere in `table.x` is refused up front."""
    minsplit, minbucket = _controls(table, minsplit, minbucket)
    fitted, = _grow_together(table, [np.arange(table.n)], minsplit, minbucket)
    return fitted


def _weakest_links(rule: list, right: list, sse: list) -> list[float]:
    """Weakest-link cost-complexity pruning of a tree given in preorder by
    each node's split (None at a leaf), right child and SSE: the step alpha
    at which each node stops being internal.

    Pass k collapses, bottom up, every link no stronger than alpha_k, where
    a link's strength is (sse - sum(leaf_sses)) / (leaves - 1) over its
    current leaves in preorder; alpha_0 = 0 and alpha_{k+1} is the weakest
    link that survives pass k, so the step alphas increase strictly. A leaf
    has alpha 0, and a node cut away with an ancestor while still internal
    has the ancestor's. So every step alpha but 0 is some node's alpha, no
    node's alpha exceeds its parent's, and a node is internal in T_k iff
    its alpha exceeds alpha_k.
    """
    end = [0] * len(rule)  # one past each subtree
    for i in reversed(range(len(rule))):
        end[i] = i + 1 if rule[i] is None else end[right[i]]
    leaf_sses = [[s] for s in sse]  # each subtree's current leaves
    strength = [math.nan] * len(rule)
    gone = [0.0 if r is None else math.nan for r in rule]
    changed = [True] * len(rule)  # in the current pass; all, in the first
    live = [i for i, r in enumerate(rule) if r is not None]
    alpha = 0.0
    while True:
        for i in reversed(live):  # children before their parent
            if changed[i + 1] or changed[right[i]]:
                leaf_sses[i] = leaf_sses[i + 1] + leaf_sses[right[i]]
                strength[i] = (sse[i] - sum(leaf_sses[i])) / (len(leaf_sses[i]) - 1)
                changed[i] = True
            # a NaN strength collapses too, so pruning always ends
            if not strength[i] > alpha:
                gone[i], leaf_sses[i], changed[i] = alpha, [sse[i]], True
        survivors, cut_until = [], 0
        for i in live:
            if i < cut_until:  # cut away with a collapsed ancestor
                gone[i] = alpha
            elif gone[i] == alpha:
                cut_until = end[i]
            else:
                survivors.append(i)
        if not survivors:
            return gone
        live, changed = survivors, [False] * len(rule)
        # a link that survives a pass is stronger than its threshold, so the
        # next alpha is strictly greater
        alpha = min(strength[i] for i in live)


def _step_alphas(tree: RegressionTree) -> list[float]:
    """The step alphas [alpha_0 = 0, ..., alpha_K] of `tree`'s pruning."""
    return sorted({0.0, *tree.gone})


def prune_sequence(tree: RegressionTree) -> list[tuple[float, RegressionTree]]:
    """Weakest-link cost-complexity pruning.

    Returns the nested sequence [(alpha_0=0, T_0), ..., (alpha_K, root-only)]
    where T_0 already drops any zero-gain splits, each T_{k+1} collapses the
    weakest links of T_k, and alphas increase strictly. Each T_k reads the
    lists of `tree` at alpha_k; a pruned `tree` starts the sequence as T_0.
    """
    start = max(tree.alpha, 0.0)
    return [(0.0, replace(tree, alpha=start)),
            *((a, replace(tree, alpha=a)) for a in _step_alphas(tree) if a > start)]


@dataclass
class CrossValidation:
    tree: RegressionTree
    table: list[tuple[float, int, float, float]]  # (alpha, n_leaves, cv_error, cv_se)


def cross_validate(
    table: Table,
    minsplit: int | None = None,
    minbucket: int | None = None,
    folds: int = 10,
    seed: int = 0,
) -> CrossValidation:
    """Select the pruning level by k-fold cross-validation with the one-SE
    preference for smaller trees."""
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    if folds > table.n:
        raise ValueError(f"{folds} folds need at least {folds} rows, got {table.n}")
    minsplit, minbucket = _controls(table, minsplit, minbucket)
    rng = np.random.default_rng(seed)
    assignment = np.empty(table.n, dtype=int)
    assignment[rng.permutation(table.n)] = np.arange(table.n) % folds
    keeps = [np.flatnonzero(assignment != fold) for fold in range(folds)]
    # the full tree and every fold tree grow together, under the size
    # controls resolved for the full table
    full, *fold_trees = _grow_together(table, [np.arange(table.n), *keeps], minsplit, minbucket)
    alphas = _step_alphas(full)
    # evaluate between breakpoints: geometric midpoints, the last alpha as-is
    eval_alphas = [
        math.sqrt(a * alphas[i + 1]) if i + 1 < len(alphas) else a
        for i, a in enumerate(alphas)
    ]

    # a fold tree is pruned at its last step at or below an eval alpha, or
    # at its step 0 (alpha 0) if none is, as for a NaN eval alpha
    at = np.fmax(eval_alphas, 0.0)[:, None, None]

    sq_errors = np.zeros((len(eval_alphas), table.n))
    for fold, fitted in enumerate(fold_trees):
        holdout = np.flatnonzero(assignment == fold)
        path_gone, path_mean = fitted._paths(table.x[holdout])
        # a row's leaf in the fold tree pruned at an alpha is the first node
        # on its path that is a leaf by then, as in `predict`
        stop = np.argmax(path_gone <= at, axis=2)
        preds = path_mean[np.arange(len(holdout)), stop]
        sq_errors[:, holdout] = (table.y[holdout] - preds) ** 2

    cv_mean = sq_errors.mean(axis=1)
    cv_se = sq_errors.std(axis=1, ddof=1) / math.sqrt(table.n)
    best_i = int(np.argmin(cv_mean))
    cutoff = cv_mean[best_i] + cv_se[best_i]
    chosen = max([best_i, *(i for i, m in enumerate(cv_mean) if m <= cutoff)])
    # T_k has one leaf more than its internal nodes, those whose alpha exceeds alpha_k
    return CrossValidation(
        tree=replace(full, alpha=alphas[chosen]),
        table=[(a, 1 + sum(g > a for g in full.gone), float(cv_mean[i]), float(cv_se[i]))
               for i, a in enumerate(alphas)],
    )


def variable_importance(tree: RegressionTree) -> dict[str, float]:
    """Importance percentages from primary-split SSE reductions plus
    agreement-weighted surrogate credits, normalised to sum to 100."""
    table = tree.table
    scores = np.zeros(table.n_vars)
    internal = tree.internal_nodes()
    nodes = [(tree.rows[i], tree.rule[i].mask(table.x[tree.rows[i], tree.rule[i].var]))
             for i in internal]
    agreements = _best_surrogate_agreements(table, nodes).tolist() if nodes else []
    for i, (_, went_left), agree in zip(internal, nodes, agreements):
        rule, improvement = tree.rule[i], tree.improvement(i)
        scores[rule.var] += improvement
        n_node = len(went_left)
        majority = max(went_left.sum(), n_node - went_left.sum()) / n_node
        if majority >= 1.0:
            continue
        for var in range(table.n_vars):
            if var == rule.var:
                continue
            adjusted = (agree[var] - majority) / (1.0 - majority)
            if adjusted > 0:
                scores[var] += improvement * adjusted
    total = scores.sum()
    if total <= 0:
        return {name: 0.0 for name in table.names}
    ranked = sorted(zip(table.names, scores), key=lambda item: (-item[1], item[0]))
    return {name: 100.0 * s / total for name, s in ranked}


def _best_surrogate_agreements(table: Table, nodes: list) -> np.ndarray:
    """Per node, given as (rows, went_left) of its primary split, and per
    variable: the highest share of the node's rows that one cut of the
    variable sends the same way as the primary split, or the opposite way
    (0 without a cut). One exact pass serves every node, as in
    `_best_splits`, with weights +1 on primary-left rows and -1 on the
    others: a cut whose left side sums to s in a node of n rows summing to
    t agrees on s + (n - t) / 2 rows."""
    rows, went_left = zip(*nodes)
    sizes, slots, at, w, (owner, var, _, _, left, total) = \
        _pad(table, rows, [np.where(left, 1, -1) for left in went_left])
    best = np.zeros((len(nodes), table.n_vars), dtype=int)
    agree = left + (sizes[owner] - total) // 2
    np.maximum.at(best, (owner, var), np.maximum(agree, sizes[owner] - agree))
    spare = (sizes - np.add.reduce(w, axis=1))[:, None] // 2
    for v, _, left, listed in _subsets(table, at, slots, w):
        agree = left + spare
        best[:, v] = np.max(np.maximum(agree, sizes[:, None] - agree), axis=1, where=listed, initial=0)
    return best / sizes[:, None]
