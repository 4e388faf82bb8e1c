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
class TreeNode:
    rows: np.ndarray
    mean: float
    sse: float
    rule: SplitRule | None = None
    improvement: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.rule is None


@dataclass
class RegressionTree:
    root: TreeNode
    table: Table
    minsplit: int
    minbucket: int

    def leaves(self) -> list[TreeNode]:
        return [n for n in self.nodes() if n.is_leaf]

    def nodes(self) -> list[TreeNode]:
        return list(_preorder(self.root))

    def internal_nodes(self) -> list[TreeNode]:
        return [n for n in self.nodes() if not n.is_leaf]

    def training_sse(self) -> float:
        return sum(leaf.sse for leaf in self.leaves())

    def n_leaves(self) -> int:
        return len(self.leaves())

    def used_variables(self) -> set[int]:
        return {n.rule.var for n in self.internal_nodes()}

    def predict(self, x) -> np.ndarray:
        """Leaf means for one record or a matrix of records; a missing value
        on a routed variable is an error (no surrogate routing at prediction
        time)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.table.n_vars:
            raise ValueError(f"record must have {self.table.n_vars} values")
        out = np.empty(len(x))

        def route(node: TreeNode, rows: np.ndarray) -> None:
            if len(rows) == 0:
                return
            if node.is_leaf:
                out[rows] = node.mean
                return
            left = node.rule.mask(x[rows, node.rule.var])
            route(node.left, rows[left])
            route(node.right, rows[~left])

        route(self.root, np.arange(len(x)))
        return out

    def leaf_signature(self) -> frozenset:
        """Partition of the training rows into leaves, for structural comparison."""
        return frozenset(frozenset(leaf.rows.tolist()) for leaf in self.leaves())

    def to_dict(self) -> dict:
        def node_dict(node: TreeNode) -> dict:
            out = {"count": len(node.rows), "mean": float(node.mean), "sse": float(node.sse)}
            if not node.is_leaf:
                out["split"] = node.rule.describe(self.table.names)
                out["variable"] = self.table.names[node.rule.var]
                out["improvement"] = float(node.improvement)
                out["left"] = node_dict(node.left)
                out["right"] = node_dict(node.right)
            return out

        return {
            "minsplit": self.minsplit,
            "minbucket": self.minbucket,
            "n_leaves": self.n_leaves(),
            "root": node_dict(self.root),
        }


def _sse(values: np.ndarray) -> float:
    # the arithmetic of `ndarray.mean` and `np.sum`, without their wrappers
    centred = values - np.add.reduce(values) / len(values)
    return float(np.add.reduce(centred * centred))


def _level_masks(col: np.ndarray) -> tuple[list[float], np.ndarray]:
    """The sorted levels of a categorical column, and each level's row mask."""
    levels = sorted(set(col.tolist()))
    return levels, col == np.array(levels)[:, None]


def _subset_sums(per_level: np.ndarray) -> np.ndarray:
    """Sum of `per_level` over the left levels of every cut of a categorical
    variable: the proper subsets of its levels in canonical order, each
    partition listed once with the lowest level pinned to the left side, so
    a subset's index is its bit pattern over the other levels."""
    sums = per_level[:1]
    for value in per_level[1:]:
        sums = np.concatenate((sums, sums + value))
    # the last bit pattern puts every level on the left
    return sums[:-1]


def _numeric_cuts(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable row order of each column of `block`, and the column, threshold
    and left count of every cut of every column, by column then threshold.

    Cuts lie midway between a column's sorted distinct values (NaN pairs are
    one value, as in `np.unique`). Rows sorted by the column, NaN last, put
    the left side of a cut, `col < threshold`, on a prefix of that order. Its
    length, the count of values below the threshold, is one past the lower
    neighbour unless the midpoint rounds onto it (adjacent doubles) or
    overflows to +-inf, and 0 for a NaN threshold (from a NaN value, or -inf
    next to inf: `grow` refuses NaN values, `best_split` does not).
    """
    order = np.argsort(block, axis=0, kind="stable")
    ranked = np.take_along_axis(block, order, axis=0)
    lower, upper = ranked[:-1], ranked[1:]
    cut_col, pos = np.nonzero(((lower != upper) & ~np.isnan(lower)).T)
    below, above = lower[pos, cut_col], upper[pos, cut_col]
    # midpoints at cuts only: between repeats of a huge value they overflow
    thresholds = (below + above) / 2.0
    n_left = pos + 1
    for i in np.flatnonzero(~((below < thresholds) & (thresholds <= above))):
        t = thresholds[i]
        n_left[i] = 0 if np.isnan(t) else np.searchsorted(ranked[:, cut_col[i]], t)
    return order, cut_col, thresholds, n_left


def _shortlist_margin(y: np.ndarray, centred: np.ndarray, parent_sse: float) -> float:
    """Twice a bound on how far the approximate reduction of a cut and its
    brute-force reduction can each lie from the exact one.

    With g = (n + 4) eps, M = max|y| and A = sum|y - mean|: mean rounding
    biases each `_sse` by at most B = n (g M)^2, so the exact parent SSE is
    below P = (1 + g)(parent_sse + 2B); the brute-force reduction is off by at
    most 3gP + 4B. The difference D between a cut's left sum of the centred
    response and k/n of its total, from prefix sums (numeric) or from sums
    of per-level sums (categorical), adds at most n centred terms either
    way, so it is off by at most E = 2gA, and the approximate reduction
    n D^2 / (k (n - k)) by at most 4 sqrt(2P) E + 4E^2 + gP.
    """
    g = (len(y) + 4) * np.finfo(float).eps
    bias = len(y) * (g * float(np.max(np.abs(y), initial=0.0))) ** 2
    p_hi = (1 + g) * (parent_sse + 2 * bias)
    d_err = 2 * g * float(np.sum(np.abs(centred)))
    return 8 * (g * p_hi + bias + math.sqrt(2 * p_hi) * d_err + d_err**2)


def best_split(table: Table, rows: np.ndarray, minbucket: int) -> tuple[SplitRule, float] | None:
    """Best SSE-reducing split over all variables and admissible cut points.

    Ties break toward the lowest variable index, then the lowest threshold
    (numeric) or the canonical subset order (categorical). Returns None when
    no admissible split reduces the parent SSE.

    One sort of the node's numeric columns gives every numeric cut's
    reduction from prefix sums of the centred response, and per-level sums
    give every categorical cut's. Those values only shortlist the cuts
    within `_shortlist_margin` of the best; each shortlisted cut is then
    scored exactly as brute force scores it, so the winner and its
    reduction are the brute-force ones.
    """
    y = table.y[rows]
    n = len(rows)
    centred = y - np.add.reduce(y) / n  # as `_sse` centres, kept for the cut sums
    parent_sse = float(np.add.reduce(centred * centred))
    if parent_sse <= PURITY_TOL_REL * max(float(np.dot(y, y)), 1e-300):
        return None
    tol = parent_sse * REDUCTION_TOL_REL
    numeric = [var for var, kind in enumerate(table.kinds) if kind == NUMERIC]
    order, cut_col, thresholds, n_left = _numeric_cuts(table.x[np.ix_(rows, numeric)])
    prefix = np.zeros((n + 1, len(numeric)))
    np.cumsum(centred[order], axis=0, out=prefix[1:])
    diffs = [prefix[n_left, cut_col] - prefix[-1, cut_col] * (n_left / n)]
    counts = [n_left]
    categorical = []
    total = np.add.reduce(centred)
    for var, kind in enumerate(table.kinds):
        if kind == CATEGORICAL:
            col = table.x[rows, var]
            if np.isnan(col).any():  # each NaN would be a level of its own
                raise ValueError(f"missing value (NaN) in column {table.names[var]!r}")
            levels, on = _level_masks(col)
            k = _subset_sums(np.count_nonzero(on, axis=1))
            left_sums = _subset_sums(np.add.reduce(np.where(on, centred, 0.0), axis=1))
            diffs.append(left_sums - total * (k / n))
            counts.append(k)
            categorical.append((var, levels, on))
    diff, k = np.concatenate(diffs), np.concatenate(counts)
    # at k = 0 or k = n a numeric difference is exactly 0, and so is approx
    approx = n * diff**2 / np.maximum(k * (n - k), 1)
    admissible = (k >= minbucket) & (n - k >= minbucket)
    floor = np.max(approx[admissible], initial=-np.inf) - _shortlist_margin(y, centred, parent_sse)
    if not math.isfinite(floor):
        # non-finite data or overflow: no bound holds, so score every cut
        floor = -math.inf
    kept = np.split(admissible & ~(approx < floor), np.cumsum([len(c) for c in counts[:-1]]))

    # numeric cuts are scored on original-row-order subsets, so that exact
    # ties resolve identically no matter how the data is arranged
    shortlist = [(var, cut, SplitRule(var, threshold=cut), table.x[rows, var] < cut) for var, cut in
                 zip(map(numeric.__getitem__, cut_col[kept[0]].tolist()), thresholds[kept[0]].tolist())]
    for (var, levels, on), keep in zip(categorical, kept[1:]):
        for bits in np.flatnonzero(keep):
            # the lowest level, those of the set bits, and the OR of their masks
            picked = [0] + [i + 1 for i in range(len(levels) - 1) if bits >> i & 1]
            rule = SplitRule(var, left_levels=frozenset(levels[i] for i in picked))
            shortlist.append((var, float(bits), rule, on[picked].any(axis=0)))
    # stable: each variable's cuts keep their order, so unordered (NaN)
    # keys resolve as brute force resolves them
    shortlist.sort(key=lambda cut: cut[0])
    best = None
    for var, cut, rule, mask in shortlist:
        reduction = parent_sse - _sse(y[mask]) - _sse(y[~mask])
        if reduction <= tol:
            continue
        key = (-reduction, var, cut)
        if best is None or key < best[0]:
            best = key, rule
    if best is None:
        return None
    (neg_reduction, _, _), rule = best
    return rule, -neg_reduction


def grow(table: Table, minsplit: int | None = None, minbucket: int | None = None) -> RegressionTree:
    """Recursive partitioning until no admissible SSE-reducing split remains.

    A NaN anywhere in `table.x` is refused up front: a split could not route
    its row to either child.
    """
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
    if minsplit < 2 * minbucket:
        raise ValueError(f"minsplit ({minsplit}) must be at least twice minbucket ({minbucket})")

    def build(rows: np.ndarray) -> TreeNode:
        y = table.y[rows]
        mean, sse = float(y.mean()), _sse(y)
        found = best_split(table, rows, minbucket) if len(rows) >= minsplit else None
        if found is None:
            return TreeNode(rows, mean, sse)
        rule, reduction = found
        mask = rule.mask(table.x[rows, rule.var])
        # arguments run left to right: the left subtree grows first
        return TreeNode(rows, mean, sse, rule, reduction,
                        build(rows[mask]), build(rows[~mask]))

    root = build(np.arange(table.n))
    return RegressionTree(root=root, table=table, minsplit=minsplit, minbucket=minbucket)


def prune_sequence(tree: RegressionTree) -> list[tuple[float, RegressionTree]]:
    """Weakest-link cost-complexity pruning.

    Returns the nested sequence [(alpha_0=0, T_0), ..., (alpha_K, root-only)]
    where T_0 already drops any zero-gain splits, each T_{k+1} collapses the
    weakest links of T_k, and alphas increase strictly. Each tree is built
    from the previous one and shares its unchanged subtrees; the input tree
    is left as it is.
    """

    def prune(node: TreeNode, threshold: float) -> tuple[TreeNode, list[float], float]:
        """The subtree with every link no stronger than `threshold` collapsed,
        bottom up; its leaf SSEs in preorder; its weakest remaining link."""
        if node.is_leaf:
            return node, [node.sse], math.inf
        left, left_sses, left_weakest = prune(node.left, threshold)
        right, right_sses, right_weakest = prune(node.right, threshold)
        leaf_sses = left_sses + right_sses
        strength = (node.sse - sum(leaf_sses)) / (len(leaf_sses) - 1)
        # a NaN strength collapses too, so the loop below always ends
        if not strength > threshold:
            return TreeNode(node.rows, node.mean, node.sse), [node.sse], math.inf
        if left is not node.left or right is not node.right:
            node = replace(node, left=left, right=right)
        return node, leaf_sses, min(strength, left_weakest, right_weakest)

    # a link that survives a pass is stronger than its threshold and its
    # subtree never changes again, so the next alpha is strictly greater
    root, _, alpha = prune(tree.root, 0.0)
    sequence = [(0.0, replace(tree, root=root))]
    while not root.is_leaf:
        root, _, next_alpha = prune(root, alpha)
        sequence.append((alpha, replace(tree, root=root)))
        alpha = next_alpha
    return sequence


def _preorder(node: TreeNode):
    """The subtree's nodes, each before its left then its right subtree; sums
    over them, in `training_sse` and importance, depend on this order."""
    yield node
    if not node.is_leaf:
        yield from _preorder(node.left)
        yield from _preorder(node.right)


@dataclass
class CrossValidation:
    alpha: float
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
    if not 2 <= folds <= table.n:
        raise ValueError(f"folds must be in 2..{table.n}, got {folds}")
    full = grow(table, minsplit, minbucket)
    sequence = prune_sequence(full)
    alphas = [a for a, _ in sequence]
    # evaluate between breakpoints: geometric midpoints, the last alpha as-is
    eval_alphas = [
        math.sqrt(a * alphas[i + 1]) if i + 1 < len(alphas) else a
        for i, a in enumerate(alphas)
    ]

    rng = np.random.default_rng(seed)
    assignment = np.empty(table.n, dtype=int)
    assignment[rng.permutation(table.n)] = np.arange(table.n) % folds

    sq_errors = np.zeros((len(eval_alphas), table.n))
    for fold in range(folds):
        holdout = np.flatnonzero(assignment == fold)
        keep = np.flatnonzero(assignment != fold)
        sub = table.subset(keep)
        # every fold grows under the size controls the full tree resolved
        fold_tree = grow(sub, full.minsplit, full.minbucket)
        fold_seq = prune_sequence(fold_tree)
        # neighbouring alphas often select the same pruned tree: predict once
        errors_by_tree = {}
        for i, alpha in enumerate(eval_alphas):
            pruned = _tree_at_alpha(fold_seq, alpha)
            if id(pruned) not in errors_by_tree:
                preds = pruned.predict(table.x[holdout])
                errors_by_tree[id(pruned)] = (table.y[holdout] - preds) ** 2
            sq_errors[i, holdout] = errors_by_tree[id(pruned)]

    cv_mean = sq_errors.mean(axis=1)
    cv_se = sq_errors.std(axis=1, ddof=1) / math.sqrt(table.n)
    best_i = int(np.argmin(cv_mean))
    cutoff = cv_mean[best_i] + cv_se[best_i]
    chosen = max([best_i, *(i for i, m in enumerate(cv_mean) if m <= cutoff)])
    return CrossValidation(
        alpha=alphas[chosen],
        tree=sequence[chosen][1],
        table=[
            (alphas[i], sequence[i][1].n_leaves(), float(cv_mean[i]), float(cv_se[i]))
            for i in range(len(sequence))
        ],
    )


def _tree_at_alpha(sequence: list[tuple[float, RegressionTree]], alpha: float) -> RegressionTree:
    chosen = sequence[0][1]
    for a, tree in sequence:
        if a <= alpha:
            chosen = tree
        else:
            break
    return chosen


def variable_importance(tree: RegressionTree) -> dict[str, float]:
    """Importance percentages from primary-split SSE reductions plus
    agreement-weighted surrogate credits, normalised to sum to 100."""
    table = tree.table
    scores = np.zeros(table.n_vars)
    for node in tree.internal_nodes():
        rule = node.rule
        scores[rule.var] += node.improvement
        went_left = rule.mask(table.x[node.rows, rule.var])
        n_node = len(node.rows)
        majority = max(went_left.sum(), n_node - went_left.sum()) / n_node
        if majority >= 1.0:
            continue
        for var in range(table.n_vars):
            if var == rule.var:
                continue
            agree = _best_surrogate_agreement(table, node.rows, var, went_left)
            adjusted = (agree - majority) / (1.0 - majority)
            if adjusted > 0:
                scores[var] += node.improvement * adjusted
    total = scores.sum()
    if total <= 0:
        return {name: 0.0 for name in table.names}
    ranked = sorted(zip(table.names, scores), key=lambda item: (-item[1], item[0]))
    return {name: 100.0 * s / total for name, s in ranked}


def _best_surrogate_agreement(table: Table, rows: np.ndarray, var: int, went_left: np.ndarray) -> float:
    """Highest share of the node's rows that one cut of `var` sends the same
    way as the primary split, or the opposite way."""
    n = len(rows)
    col = table.x[rows, var]
    if table.kinds[var] == NUMERIC:
        order, _, _, n_left = _numeric_cuts(col[:, None])
        went_prefix = np.concatenate(([0], np.cumsum(went_left[order[:, 0]])))
        # rows agreeing: primary-left rows on the cut's left side plus
        # primary-right rows on its right side
        agree = 2 * went_prefix[n_left] + n - n_left - went_prefix[-1]
    else:
        _, on = _level_masks(col)
        # a subset agrees on its levels' primary-left rows and on every
        # primary-right row outside them
        agree = _subset_sums(on @ np.where(went_left, 1, -1)) + n - np.count_nonzero(went_left)
    best = int(np.max(np.maximum(agree, n - agree), initial=0))
    return best / n
