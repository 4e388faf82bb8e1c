"""Regression-tree tests: toy cases, brute-force oracles for splitting and
pruning, cross-validation behavior, importance and prediction."""

import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epiforecast import tree
from epiforecast.tree import (
    REDUCTION_TOL_REL,
    SplitRule,
    Table,
    best_split,
    cross_validate,
    grow,
    prune_sequence,
    table_from_arrays,
    variable_importance,
)

# ------------------------------------------------------------ oracles


def oracle_split_search(table, rows, minbucket):
    """Plain exhaustive enumeration over every admissible cut; the winning
    rule and its SSE reduction, or None."""
    y = table.y[rows]
    parent = float(np.sum((y - y.mean()) ** 2))
    if parent <= tree.PURITY_TOL_REL * max(float(np.dot(y, y)), 1e-300):
        return None
    tol = parent * REDUCTION_TOL_REL
    best = None
    for var in range(table.n_vars):
        col = table.x[rows, var]
        if table.kinds[var] == tree.NUMERIC:
            for cut in sorted(set(col.tolist())):
                if not (col < cut).any():
                    continue
                below = col[col < cut].max()
                threshold = (below + cut) / 2.0
                # the partition the rule makes, which differs from col < cut
                # where the midpoint rounds or overflows (next to +-inf)
                mask = col < threshold
                n_left = int(mask.sum())
                if n_left < minbucket or len(rows) - n_left < minbucket or n_left == 0:
                    continue
                left, right = y[mask], y[~mask]
                reduction = (
                    parent
                    - float(np.sum((left - left.mean()) ** 2))
                    - float(np.sum((right - right.mean()) ** 2))
                )
                if reduction <= tol:
                    continue
                key = (-reduction, var, threshold)
                if best is None or key < best[0]:
                    best = (key, SplitRule(var=var, threshold=threshold))
        else:
            levels = sorted(set(col.tolist()))
            rest = levels[1:]
            for mask_bits in range(2 ** len(rest)):
                subset = frozenset(
                    [levels[0]] + [v for i, v in enumerate(rest) if mask_bits >> i & 1]
                )
                if len(subset) == len(levels):
                    continue
                mask = np.isin(col, list(subset))
                n_left = int(mask.sum())
                if n_left < minbucket or len(rows) - n_left < minbucket:
                    continue
                left, right = y[mask], y[~mask]
                reduction = (
                    parent
                    - float(np.sum((left - left.mean()) ** 2))
                    - float(np.sum((right - right.mean()) ** 2))
                )
                if reduction <= tol:
                    continue
                key = (-reduction, var, float(mask_bits))
                if best is None or key < best[0]:
                    best = (key, SplitRule(var=var, left_levels=subset))
    return (best[1], -best[0][0]) if best else None


def oracle_best_split(table, rows, minbucket):
    """The rule `oracle_split_search` picks, or None."""
    found = oracle_split_search(table, rows, minbucket)
    return found[0] if found else None


def oracle_surrogate_agreement(table, rows, var, went_left):
    """Best agreement of one cut of `var` with `went_left`, scoring each cut
    with its own mask."""
    col = table.x[rows, var]
    n = len(rows)
    if table.kinds[var] == tree.NUMERIC:
        distinct = np.unique(col)
        masks = [col < (distinct[i - 1] + distinct[i]) / 2.0 for i in range(1, len(distinct))]
    else:
        levels = sorted(set(col.tolist()))
        rest = levels[1:]
        masks = [
            np.isin(col, [levels[0]] + [v for i, v in enumerate(rest) if bits >> i & 1])
            for bits in range(2 ** len(rest) - 1)
        ]
    best = 0.0
    for mask in masks:
        agree = max((mask == went_left).sum(), (mask != went_left).sum()) / n
        best = max(best, agree)
    return float(best)


def reference_surrogate_agreement(table, rows, var, went_left):
    """Highest share of the node's rows that one cut of `var` sends the same
    way as the primary split, or the opposite way: the per-(node, variable)
    search `variable_importance` made before its batched pass, one column
    sorted and cut per call."""
    n = len(rows)
    col = table.x[rows, var]
    if table.kinds[var] == tree.NUMERIC:
        order, _, _, _, n_left = tree._numeric_cuts(col[None, :, None], np.array([n]))
        went_prefix = np.concatenate(([0], np.cumsum(went_left[order[0, :, 0]])))
        agree = 2 * went_prefix[n_left] + n - n_left - went_prefix[-1]
    else:
        on = col == np.array(sorted(set(col.tolist())))[:, None]
        agree = tree._subset_sums(on @ np.where(went_left, 1, -1)) + n - np.count_nonzero(went_left)
    best = int(np.max(np.maximum(agree, n - agree), initial=0))
    return best / n


def reference_variable_importance(fitted):
    """`variable_importance` with one surrogate search per (node, variable),
    as it was computed before the batched pass."""
    table = fitted.table
    scores = np.zeros(table.n_vars)
    for i in fitted.internal_nodes():
        rule, rows, improvement = fitted.rule[i], fitted.rows[i], fitted.improvement(i)
        scores[rule.var] += improvement
        went_left = rule.mask(table.x[rows, rule.var])
        n_node = len(rows)
        majority = max(went_left.sum(), n_node - went_left.sum()) / n_node
        if majority >= 1.0:
            continue
        for var in range(table.n_vars):
            if var == rule.var:
                continue
            agree = reference_surrogate_agreement(table, rows, var, went_left)
            adjusted = (agree - majority) / (1.0 - majority)
            if adjusted > 0:
                scores[var] += improvement * adjusted
    total = scores.sum()
    if total <= 0:
        return {name: 0.0 for name in table.names}
    ranked = sorted(zip(table.names, scores), key=lambda item: (-item[1], item[0]))
    return {name: 100.0 * s / total for name, s in ranked}


def assert_importance_like_reference(fitted):
    """Same names, order and float bits as `reference_variable_importance`."""
    got = [(name, float(v).hex()) for name, v in variable_importance(fitted).items()]
    assert got == [(name, float(v).hex()) for name, v in reference_variable_importance(fitted).items()]


def enumerate_pruned_subtrees(fitted, i=0):
    """All consistent collapsings of grown node `i`'s subtree; (leaf-signature,
    sum of leaf sse, n_leaves)."""
    collapsed = (frozenset([frozenset(fitted.rows[i].tolist())]), fitted.sse[i], 1)
    if fitted.rule[i] is None:
        return [collapsed]
    out = [collapsed]
    for lsig, lsse, lleaves in enumerate_pruned_subtrees(fitted, i + 1):
        for rsig, rsse, rleaves in enumerate_pruned_subtrees(fitted, fitted.right[i]):
            out.append((lsig | rsig, lsse + rsse, lleaves + rleaves))
    return out


def oracle_optimal_subtree(candidates, alpha):
    """Min SSE + alpha * leaves; fewest leaves breaks cost ties."""
    return min(candidates, key=lambda c: (c[1] + alpha * c[2], c[2]))


def reference_prune_sequence(fitted):
    """Weakest-link pruning of the grown tree `fitted` as the mutable-node
    implementation did it: a full preorder walk for every link strength and
    a postorder collapsing pass per alpha. Collapsed nodes are tracked by
    index, so `fitted` is not changed; returns (alpha, the pruned tree as
    `to_dict()` writes it) per step."""
    collapsed = set()
    names = fitted.table.names

    def is_leaf(i):
        return fitted.rule[i] is None or i in collapsed

    def preorder(i):
        yield i
        if not is_leaf(i):
            yield from preorder(i + 1)
            yield from preorder(fitted.right[i])

    def postorder(i):
        if not is_leaf(i):
            yield from postorder(i + 1)
            yield from postorder(fitted.right[i])
        yield i

    def link_strength(i):
        leaves = [j for j in preorder(i) if is_leaf(j)]
        return (fitted.sse[i] - sum(fitted.sse[j] for j in leaves)) / (len(leaves) - 1)

    def collapse_at_or_below(threshold):
        for i in postorder(0):
            if not is_leaf(i) and link_strength(i) <= threshold:
                collapsed.add(i)

    def node_dict(i):
        out = {"count": len(fitted.rows[i]), "mean": fitted.mean[i], "sse": fitted.sse[i]}
        if not is_leaf(i):
            rule = fitted.rule[i]
            out["split"] = rule.describe(names)
            out["variable"] = names[rule.var]
            out["improvement"] = fitted.improvement(i)
            out["left"] = node_dict(i + 1)
            out["right"] = node_dict(fitted.right[i])
        return out

    def snapshot():
        return {"minsplit": fitted.minsplit, "minbucket": fitted.minbucket,
                "n_leaves": sum(map(is_leaf, preorder(0))), "root": node_dict(0)}

    collapse_at_or_below(0.0)
    sequence = [(0.0, snapshot())]
    while not is_leaf(0):
        alpha = min(link_strength(i) for i in preorder(0) if not is_leaf(i))
        collapse_at_or_below(alpha)
        if alpha <= sequence[-1][0]:
            sequence[-1] = (sequence[-1][0], snapshot())
        else:
            sequence.append((alpha, snapshot()))
    return sequence


def assert_prunes_like_reference(fitted):
    before = fitted.to_dict()
    expected = reference_prune_sequence(fitted)
    got = prune_sequence(fitted)
    assert [a.hex() for a, _ in got] == [a.hex() for a, _ in expected]
    assert [t.to_dict() for _, t in got] == [d for _, d in expected]
    assert fitted.to_dict() == before


def tree_at_alpha(sequence, alpha):
    """The tree of the last step whose alpha is at most `alpha`, or step 0's
    if none is (a NaN `alpha`, say)."""
    chosen = sequence[0][1]
    for a, fitted in sequence:
        if a <= alpha:
            chosen = fitted
        else:
            break
    return chosen


def reference_cross_validate(table, minsplit=None, minbucket=None, folds=10, seed=0):
    """`cross_validate` as pruned fold trees computed it: each fold tree
    grown alone, its whole pruning sequence built, and the tree at every
    eval alpha predicting the fold's holdout rows."""
    full = grow(table, minsplit, minbucket)
    assignment = np.empty(table.n, dtype=int)
    assignment[np.random.default_rng(seed).permutation(table.n)] = np.arange(table.n) % folds
    sequence = prune_sequence(full)
    alphas = [a for a, _ in sequence]
    eval_alphas = [
        math.sqrt(a * alphas[i + 1]) if i + 1 < len(alphas) else a
        for i, a in enumerate(alphas)
    ]
    sq_errors = np.zeros((len(eval_alphas), table.n))
    for fold in range(folds):
        holdout = np.flatnonzero(assignment == fold)
        fitted = grow(table.subset(np.flatnonzero(assignment != fold)), full.minsplit, full.minbucket)
        fold_seq = prune_sequence(fitted)
        for i, alpha in enumerate(eval_alphas):
            preds = tree_at_alpha(fold_seq, alpha).predict(table.x[holdout])
            sq_errors[i, holdout] = (table.y[holdout] - preds) ** 2
    cv_mean = sq_errors.mean(axis=1)
    cv_se = sq_errors.std(axis=1, ddof=1) / math.sqrt(table.n)
    best_i = int(np.argmin(cv_mean))
    cutoff = cv_mean[best_i] + cv_se[best_i]
    chosen = max([best_i, *(i for i, m in enumerate(cv_mean) if m <= cutoff)])
    rows = [(alphas[i], sequence[i][1].n_leaves(), float(cv_mean[i]), float(cv_se[i]))
            for i in range(len(sequence))]
    return alphas[chosen], sequence[chosen][1], rows


def assert_cross_validates_like_reference(table, **kwargs):
    cv = cross_validate(table, **kwargs)
    alpha, chosen, rows = reference_cross_validate(table, **kwargs)

    def exact(rows):
        return [(a.hex(), leaves, err.hex(), se.hex()) for a, leaves, err, se in rows]

    assert exact(cv.table) == exact(rows)
    assert cv.tree.alpha.hex() == alpha.hex()
    # repr, as NaN != NaN: the trees of a non-finite response hold NaN
    assert repr(cv.tree.to_dict()) == repr(chosen.to_dict())


def record_grown_trees(monkeypatch) -> list:
    """Patch `tree._grow_together` so that every tree it grows is appended
    to the returned list."""
    grown = []
    grow_together = tree._grow_together

    def recording(table, roots, minsplit, minbucket):
        built = grow_together(table, roots, minsplit, minbucket)
        grown.extend(built)
        return built

    monkeypatch.setattr(tree, "_grow_together", recording)
    return grown


def extreme_table(response):
    """A 30-row table whose response is infinite at one row ("inf": the
    root's SSE is NaN, and so is every link strength above it) or holds
    finite values whose squared deviations overflow ("overflow"), or
    finite values near 1e153 whose SSEs are finite ("huge": link strengths
    near 1e306, whose products overflow)."""
    rng = np.random.default_rng(24)
    x = rng.normal(size=(30, 2))
    if response == "inf":
        y = rng.normal(size=30)
        y[7] = np.inf
    elif response == "overflow":
        y = rng.choice([-1e200, 1e200], size=30)
    else:
        y = 1e153 * (rng.normal(size=30) + 3.0 * (x[:, 0] < 0))
    return table_from_arrays(x, y)


def categorical_table(rng):
    """A random table of 8-60 rows with one to three categorical columns of
    2-5 levels, up to two numeric ones (some rounded, so tied), the columns
    shuffled, and a response that depends on the first categorical column."""
    n = int(rng.integers(8, 61))
    kinds, columns = [], []
    for _ in range(int(rng.integers(1, 4))):
        kinds.append(tree.CATEGORICAL)
        columns.append(rng.integers(0, int(rng.integers(2, 6)), n).astype(float))
    for _ in range(int(rng.integers(0, 3))):
        kinds.append(tree.NUMERIC)
        columns.append(np.round(rng.normal(size=n), int(rng.integers(0, 3))))
    order = rng.permutation(len(kinds))
    x = np.column_stack(columns)[:, order]
    y = rng.normal(size=n) + 2.0 * columns[0]
    names = tuple(f"v{i}" for i in range(len(kinds)))
    return Table(names, tuple(np.array(kinds)[order].tolist()), x, y)


def oracle_route(fitted, row):
    """Leaf mean for one record in the grown tree `fitted`, routed one value
    at a time as per-row `SplitRule.goes_left` calls did."""
    i = 0
    while fitted.rule[i] is not None:
        rule = fitted.rule[i]
        value = row[rule.var]
        if math.isnan(value):
            raise ValueError(f"missing value for split variable {rule.var}")
        if rule.threshold is not None:
            goes_left = value < rule.threshold
        else:
            goes_left = value in rule.left_levels
        i = i + 1 if goes_left else fitted.right[i]
    return fitted.mean[i]


def assert_same_nodes(a, b):
    """Node for node: rows, mean, SSE, rule and right child, bit for bit;
    SSE and right children fix each split's improvement."""
    assert len(a.rule) == len(b.rule)
    for i in range(len(a.rule)):
        assert a.rows[i].tolist() == b.rows[i].tolist()
        assert (a.mean[i].hex(), a.sse[i].hex(), a.rule[i], a.right[i]) == \
            (b.mean[i].hex(), b.sse[i].hex(), b.rule[i], b.right[i])


def assert_same_tree(a, b):
    assert (a.minsplit, a.minbucket) == (b.minsplit, b.minbucket)
    assert_same_nodes(a, b)


def hard_table(rng):
    """A random table with the inputs that trip a split search up: tied and
    constant x, NaN and +-inf entries, categorical columns with 2-4 levels, a
    column that makes the previous one's partitions in reverse row order (so
    exact ties in the reduction are decided in the last bit), and a constant,
    offset (1e8 + noise), outlier (1e12) or integer response."""
    n = int(rng.integers(2, 41))
    kinds, columns = [], []
    for _ in range(int(rng.integers(1, 5))):
        style = rng.integers(0, 6)
        col = rng.normal(size=n)
        if style == 5 and columns:
            col = -3.0 * columns[-1]
        elif style == 0:
            col = np.round(col, 1)
        elif style == 1:
            col = np.full(n, 2.5)
        elif style == 2:
            col[rng.random(n) < 0.2] = np.inf
            col[rng.random(n) < 0.2] = -np.inf
            col[rng.random(n) < 0.1] = np.nan
        elif style == 3:
            col = rng.integers(0, int(rng.integers(2, 5)), n).astype(float)
        kinds.append(tree.CATEGORICAL if style == 3 else tree.NUMERIC)
        columns.append(col)
    y = rng.normal(size=n)
    response = rng.integers(0, 5)
    if response == 0:
        y = np.full(n, 0.3)
    elif response == 1:
        y = 1e8 + y
    elif response == 2:
        y[rng.integers(n)] = 1e12
    elif response == 3:
        y = np.round(y)
    names = tuple(f"v{i}" for i in range(len(kinds)))
    return Table(names, tuple(kinds), np.column_stack(columns), y)


def edge_table(rng, huge=(-1.7e308, 1.7e308, 1.5e308, 9e307, 0.0, -np.inf, np.inf)):
    """A random table on the float edges of a sorted cut scan: tied values x
    and, in the next column, each row's x or the double just above it (their
    midpoint can round onto x); values drawn from `huge` (midpoints that
    overflow to inf, and +-inf); normals with NaN holes; and a 3-level
    categorical column."""
    n = int(rng.integers(2, 31))
    x = np.round(rng.normal(size=n), 1)
    holed = rng.normal(size=n)
    holed[rng.random(n) < 0.2] = np.nan
    columns = [
        x,
        np.where(rng.random(n) < 0.5, x, np.nextafter(x, np.inf)),
        rng.choice(huge, size=n),
        holed,
        rng.integers(0, 3, n).astype(float),
    ]
    kinds = (tree.NUMERIC,) * 4 + (tree.CATEGORICAL,)
    names = tuple(f"v{i}" for i in range(len(kinds)))
    return Table(names, kinds, np.column_stack(columns), rng.normal(size=n))


def random_rows(rng, n):
    """Every row, or a sorted random subset as a node below the root sees."""
    if rng.random() < 0.5:
        return np.arange(n)
    return np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))


def random_table(rng, n=None, n_vars=None):
    n = n or int(rng.integers(5, 51))
    n_vars = n_vars or int(rng.integers(1, 5))
    x = rng.normal(size=(n, n_vars))
    y = rng.normal(size=n)
    return table_from_arrays(x, y)


# ------------------------------------------------------------ best_split


class TestBestSplit:
    def test_constant_response_gives_none(self):
        tbl = table_from_arrays(np.arange(6.0)[:, None], np.full(6, 0.1))
        assert best_split(tbl, np.arange(6), 1) is None

    def test_toy_threshold(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 10.0, 10.0])
        )
        rule, reduction = best_split(tbl, np.arange(4), 1)
        assert rule.var == 0
        assert rule.threshold == 2.5
        assert reduction == pytest.approx(100.0)

    def test_threshold_lies_between_observed_values(self):
        rng = np.random.default_rng(0)
        tbl = random_table(rng, n=30, n_vars=2)
        rule, _ = best_split(tbl, np.arange(30), 1)
        col = sorted(tbl.x[:, rule.var])
        assert any(a < rule.threshold < b for a, b in zip(col, col[1:]))

    def test_minbucket_respected(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 5.0, 5.0, 10.0])
        )
        rule, _ = best_split(tbl, np.arange(4), 2)
        mask = tbl.x[:, 0] < rule.threshold
        assert mask.sum() >= 2 and (~mask).sum() >= 2

    def test_categorical_subset_split(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([5.0, 5.0, 0.0, 0.0, 5.0, 5.0])
        tbl = Table(("zone",), (tree.CATEGORICAL,), x, y)
        rule, _ = best_split(tbl, np.arange(6), 1)
        assert rule.left_levels in (frozenset({-1.0, 0.0}), frozenset({1.0}))

    def test_cfr_root_split_is_total_cases(self, cfr_table):
        rule, _ = best_split(cfr_table, np.arange(cfr_table.n), 1)
        assert cfr_table.names[rule.var] == "total_cases_thousands"

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        tbl = random_table(rng)
        minbucket = int(rng.integers(1, 3))
        got = best_split(tbl, np.arange(tbl.n), minbucket)
        expected = oracle_best_split(tbl, np.arange(tbl.n), minbucket)
        if expected is None:
            assert got is None
        else:
            rule, _ = got
            assert rule == expected


    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rule_and_reduction_match_oracle_on_hard_tables(self):
        rng = np.random.default_rng(20)
        for _ in range(400):
            tbl = hard_table(rng)
            rows = random_rows(rng, tbl.n)
            minbucket = int(rng.integers(1, 6))
            assert best_split(tbl, rows, minbucket) == oracle_split_search(tbl, rows, minbucket)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_rule_and_reduction_match_oracle_on_float_edges(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            tbl = edge_table(rng)
            rows = random_rows(rng, tbl.n)
            minbucket = int(rng.integers(1, 4))
            assert best_split(tbl, rows, minbucket) == oracle_split_search(tbl, rows, minbucket)
        # 1.7e308 repeats, but no cut lies between two of them, whose sum
        # overflows: the search raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(100):
                tbl = edge_table(rng, huge=(1.7e308, 0.0, -1.0))
                rows = random_rows(rng, tbl.n)
                assert best_split(tbl, rows, 1) == oracle_split_search(tbl, rows, 1)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_surrogate_agreement_matches_per_cut_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            tbl = hard_table(rng)
            rows = random_rows(rng, tbl.n)
            went_left = rng.random(len(rows)) < rng.random()
            got, = tree._best_surrogate_agreements(tbl, [(rows, went_left)])
            for var in range(tbl.n_vars):
                assert got[var] == oracle_surrogate_agreement(tbl, rows, var, went_left)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_one_surrogate_pass_over_many_nodes_matches_reference(self):
        # nodes of mixed sizes from one table share a pass, as a tree's do
        rng = np.random.default_rng(29)
        for _ in range(100):
            tbl = hard_table(rng)
            nodes = []
            for _ in range(int(rng.integers(1, 6))):
                rows = random_rows(rng, tbl.n)
                nodes.append((rows, rng.random(len(rows)) < rng.random()))
            got = tree._best_surrogate_agreements(tbl, nodes)
            assert got.shape == (len(nodes), tbl.n_vars)
            for (rows, went_left), agreements in zip(nodes, got):
                for var in range(tbl.n_vars):
                    assert agreements[var] == oracle_surrogate_agreement(tbl, rows, var, went_left)

    def test_missing_categorical_value_rejected(self):
        # each NaN would be a level of its own: 14 levels and 8191 subsets
        rng = np.random.default_rng(26)
        zone = np.concatenate([[0.0] * 5, [1.0] * 5, [np.nan] * 12])
        tbl = Table(("days", "zone"), (tree.NUMERIC, tree.CATEGORICAL),
                    np.column_stack([np.arange(22.0), zone]), rng.normal(size=22))
        with pytest.raises(ValueError, match=r"^missing value \(NaN\) in column 'zone'$"):
            best_split(tbl, np.arange(22), 1)

    def test_cfr_growth_scores_few_cuts_exactly(self, cfr_table, monkeypatch):
        calls = []
        sse = tree._sse
        monkeypatch.setattr(tree, "_sse", lambda values: calls.append(1) or sse(values))
        fitted = grow(cfr_table, minsplit=5, minbucket=1)
        # one SSE for the root and two per shortlisted cut, whose sides' SSEs
        # become the children's; scoring every cut exactly makes ~83 per node
        assert len(calls) <= 2 * len(fitted.nodes())

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_one_pass_over_many_nodes_matches_oracle(self):
        # nodes of mixed sizes from one table share a pass, as a level does
        rng = np.random.default_rng(28)
        for _ in range(150):
            tbl = hard_table(rng)
            minbucket = int(rng.integers(1, 6))
            nodes = []
            for _ in range(int(rng.integers(1, 9))):
                rows = random_rows(rng, tbl.n)
                y = tbl.y[rows]
                _, centred, sse = tree._sse(y)
                if not tree._is_pure(y, sse):
                    nodes.append((rows, y, centred, sse))
            if not nodes:
                continue
            found = tree._best_splits(tbl, nodes, minbucket)
            for (rows, y, _, _), split in zip(nodes, found):
                expected = oracle_split_search(tbl, rows, minbucket)
                assert (split and split[:2]) == expected
                if split:
                    # the mask the rule makes, and each side's SSE
                    rule, _, mask, left, right = split
                    col = tbl.x[rows, rule.var]
                    expected = col < rule.threshold if rule.threshold is not None else rule.mask(col)
                    assert mask.tolist() == expected.tolist()
                    assert (left[2].hex(), right[2].hex()) == \
                        (tree._sse(y[mask])[2].hex(), tree._sse(y[~mask])[2].hex())


# ------------------------------------------------------------ grow


class TestGrow:
    def test_single_row_is_leaf(self):
        tbl = table_from_arrays(np.array([[1.0]]), np.array([3.5]))
        fitted = grow(tbl)
        assert fitted.is_leaf(0)
        assert fitted.mean[0] == 3.5

    def test_toy_perfect_separation(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 10.0, 10.0])
        )
        fitted = grow(tbl, minsplit=2, minbucket=1)
        assert fitted.n_leaves() == 2
        assert fitted.training_sse() == 0.0

    def test_empty_table_rejected(self):
        tbl = table_from_arrays(np.empty((0, 1)), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            grow(tbl)

    @pytest.mark.parametrize("kind", [tree.NUMERIC, tree.CATEGORICAL])
    def test_missing_training_value_rejected(self, kind):
        x = np.column_stack([np.arange(8.0), np.tile([0.0, 1.0], 4)])
        x[5, 1] = np.nan
        tbl = Table(("days", "zone"), (tree.NUMERIC, kind), x, np.arange(8.0))
        # refused on entry, before any split is searched
        with pytest.raises(ValueError, match=r"^missing value \(NaN\) in column 'zone'$"):
            grow(tbl, minsplit=2, minbucket=1)

    def test_minsplit_must_cover_minbucket(self):
        tbl = table_from_arrays(np.arange(10.0)[:, None], np.arange(10.0))
        with pytest.raises(ValueError, match="minsplit"):
            grow(tbl, minsplit=3, minbucket=2)

    def test_minbucket_must_be_positive(self):
        # with minbucket 0 the cut midway between -inf and inf (a NaN
        # threshold) would leave its left side empty
        inf = np.inf
        tbl = table_from_arrays([[-inf], [inf], [1], [2], [3], [inf]], [0, 5, 1, 2, 3, 6])
        with pytest.raises(ValueError, match="^minbucket must be at least 1, got 0$"):
            grow(tbl, minsplit=2, minbucket=0)
        with pytest.raises(ValueError, match="^minbucket must be at least 1, got -1$"):
            cross_validate(tbl, minsplit=2, minbucket=-1, folds=2)

    def test_cfr_training_quality(self, cfr_table):
        fitted = grow(cfr_table, minsplit=5, minbucket=1)
        preds = fitted.predict(cfr_table.x)
        ss_res = float(np.sum((cfr_table.y - preds) ** 2))
        ss_tot = float(np.sum((cfr_table.y - cfr_table.y.mean()) ** 2))
        assert 1 - ss_res / ss_tot >= 0.85

    def test_growing_together_equals_growing_alone(self):
        # hard tables (NaN replaced, as grow refuses it) with row sets of
        # mixed sizes, tied and constant columns, categorical columns and
        # exact ties in the reduction
        rng = np.random.default_rng(29)
        for _ in range(120):
            tbl = hard_table(rng)
            tbl = Table(tbl.names, tbl.kinds, np.where(np.isnan(tbl.x), 0.0, tbl.x), tbl.y)
            minbucket = int(rng.integers(1, 4))
            minsplit = 2 * minbucket + int(rng.integers(0, 3))
            roots = [random_rows(rng, tbl.n) for _ in range(int(rng.integers(1, 12)))]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                together = tree._grow_together(tbl, roots, minsplit, minbucket)
                for rows, fitted in zip(roots, together):
                    alone = grow(tbl.subset(rows), minsplit, minbucket)
                    assert_same_nodes(fitted, alone)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        tbl = random_table(rng)
        fitted = grow(tbl, minsplit=5, minbucket=1)
        for i in fitted.internal_nodes():
            # the children's rows partition the node's, neither side empty
            left, right = fitted.rows[i + 1].tolist(), fitted.rows[fitted.right[i]].tolist()
            assert left and right
            assert sorted(left + right) == sorted(fitted.rows[i].tolist())
            # weighted child mse never above the parent's
            child_sse = fitted.sse[i + 1] + fitted.sse[fitted.right[i]]
            assert child_sse <= fitted.sse[i] + 1e-9


# ------------------------------------------------------------ pruning


class TestPrune:
    def test_root_only_tree(self):
        tbl = table_from_arrays(np.arange(3.0)[:, None], np.full(3, 2.0))
        sequence = prune_sequence(grow(tbl))
        assert len(sequence) == 1
        assert sequence[0][0] == 0.0
        assert sequence[0][1].is_leaf(0)

    def test_zero_gain_split_collapses_immediately(self):
        # hand-built depth-1 tree whose split does not reduce error: the
        # root, then its left and its right child
        y = np.array([1.0, 1.0, 1.0, 1.0])
        rows = np.arange(4)
        rule, right, sse = [SplitRule(var=0, threshold=1.5), None, None], [2, 0, 0], [0.0] * 3
        tbl = table_from_arrays(np.arange(4.0)[:, None], y)
        fitted = tree.RegressionTree(
            rule=rule, right=right, mean=[1.0] * 3, sse=sse,
            rows=[rows, rows[:2], rows[2:]], gone=tree._weakest_links(rule, right, sse),
            table=tbl, minsplit=2, minbucket=1, alpha=-math.inf)
        sequence = prune_sequence(fitted)
        assert len(sequence) == 1
        assert sequence[0][1].is_leaf(0)

    def test_alphas_strictly_increase_and_subtrees_nest(self):
        rng = np.random.default_rng(8)
        tbl = random_table(rng, n=40, n_vars=3)
        sequence = prune_sequence(grow(tbl, minsplit=5, minbucket=1))
        alphas = [a for a, _ in sequence]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        sizes = [t.n_leaves() for _, t in sequence]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))
        # nesting: every later tree's leaves partition-coarsen the earlier tree's
        for (_, big), (_, small) in zip(sequence, sequence[1:]):
            big_leaves = [frozenset(big.rows[i].tolist()) for i in big.leaves()]
            for i in small.leaves():
                rows = frozenset(small.rows[i].tolist())
                assert all(b <= rows or not (b & rows) for b in big_leaves)

    def test_pruned_tree_starts_its_own_sequence(self, cfr_table):
        # T_k's own sequence is the rest of its grown tree's, from alpha 0
        sequence = prune_sequence(grow(cfr_table, minsplit=2, minbucket=1))
        for k, (_, pruned) in enumerate(sequence):
            rest = prune_sequence(pruned)
            assert [a for a, _ in rest] == [0.0] + [a for a, _ in sequence[k + 1:]]
            assert [t.to_dict() for _, t in rest] == [t.to_dict() for _, t in sequence[k:]]

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_bit_identical_to_reference_on_hard_tables(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(300):
            tbl = hard_table(rng)
            minbucket = int(rng.integers(1, 4))
            try:
                fitted = grow(tbl, minsplit=2 * minbucket, minbucket=minbucket)
            except ValueError as exc:
                # grow refuses a table with NaN in any column; with this
                # seed 214 of the 300 tables have none and are checked
                assert "missing value" in str(exc)
                continue
            assert_prunes_like_reference(fitted)
            checked += 1
        assert checked >= 150

    def test_bit_identical_to_reference_on_random_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            tbl = random_table(rng)
            minbucket = int(rng.integers(1, 4))
            assert_prunes_like_reference(grow(tbl, minsplit=2 * minbucket, minbucket=minbucket))

    @pytest.mark.parametrize("minsplit", [9, None])
    def test_bit_identical_to_reference_on_cfr_folds(self, cfr_table, monkeypatch, minsplit):
        grown = record_grown_trees(monkeypatch)
        for seed in range(3):
            cross_validate(cfr_table, minsplit=minsplit, folds=10, seed=seed)
        # the full table's tree plus ten fold subsets per seed
        assert len(grown) == 33
        for fitted in grown:
            assert_prunes_like_reference(fitted)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("response", ["inf", "overflow"])
    def test_non_finite_response_prunes_to_root(self, response):
        tbl = extreme_table(response)
        sequence = prune_sequence(grow(tbl, minsplit=5, minbucket=1))
        assert sequence[-1][1].is_leaf(0)
        assert cross_validate(tbl, minsplit=5, minbucket=1, folds=10, seed=0).tree.is_leaf(0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_sequence_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        tbl = random_table(rng, n=int(rng.integers(10, 41)), n_vars=3)
        fitted = grow(tbl, minsplit=8, minbucket=2)
        sequence = prune_sequence(fitted)
        candidates = enumerate_pruned_subtrees(fitted)
        alphas = [a for a, _ in sequence]
        probes = [0.0]
        for a, b in zip(alphas, alphas[1:]):
            probes.append((a + b) / 2.0)
        probes.append(alphas[-1] * 2.0 + 1.0)
        for alpha in probes:
            sig, _, _ = oracle_optimal_subtree(candidates, alpha)
            mine = tree_at_alpha(sequence, alpha)
            assert mine.leaf_signature() == sig


# ------------------------------------------------------------ cross-validation


class TestCrossValidate:
    def test_noise_yields_root_only_in_majority(self):
        rng = np.random.default_rng(123)
        tbl = table_from_arrays(rng.normal(size=(50, 4)), rng.normal(size=50))
        root_only = sum(
            cross_validate(tbl, minsplit=5, minbucket=1, folds=10, seed=seed).tree.is_leaf(0)
            for seed in range(10)
        )
        assert root_only >= 6

    def test_separable_data_keeps_true_split(self):
        x = np.arange(12.0)[:, None]
        y = np.array([0.0] * 6 + [10.0] * 6)
        tbl = table_from_arrays(x, y)
        cv = cross_validate(tbl, minsplit=4, minbucket=1, folds=4, seed=0)
        assert cv.tree.n_leaves() == 2
        assert cv.tree.rule[0].threshold == 5.5

    def test_folds_grow_under_the_full_tree_controls(self, monkeypatch):
        rng = np.random.default_rng(27)
        tbl = table_from_arrays(rng.normal(size=(51, 3)), rng.normal(size=51))
        # the full tree, then each fold tree, is grown once
        grown = record_grown_trees(monkeypatch)
        cross_validate(tbl, folds=10, seed=0)
        controls = [(fitted.minsplit, fitted.minbucket) for fitted in grown]
        # the full tree resolves (6, 2) from 51 rows; a fold of 45 or 46 rows
        # would resolve (5, 1) on its own
        assert controls[0] == (6, 2)
        assert controls[1:] == [controls[0]] * 10

    @pytest.mark.parametrize("folds", [5, 10])
    @pytest.mark.parametrize("minsplit", [None, 9])
    def test_fold_trees_equal_trees_grown_alone(self, cfr_table, monkeypatch, minsplit, folds):
        grown = record_grown_trees(monkeypatch)
        for seed in range(5):
            grown.clear()
            cross_validate(cfr_table, minsplit=minsplit, folds=folds, seed=seed)
            full, *fold_trees = grown
            assert_same_tree(full, grow(cfr_table, minsplit))
            # the folds as cross_validate assigns them
            assignment = np.empty(cfr_table.n, dtype=int)
            assignment[np.random.default_rng(seed).permutation(cfr_table.n)] = \
                np.arange(cfr_table.n) % folds
            assert len(fold_trees) == folds
            for fold, fitted in enumerate(fold_trees):
                sub = cfr_table.subset(np.flatnonzero(assignment != fold))
                assert fitted.table.x.tobytes() == sub.x.tobytes()
                assert fitted.table.y.tobytes() == sub.y.tobytes()
                assert_same_tree(fitted, grow(sub, full.minsplit, full.minbucket))

    def test_level_searched_in_several_passes_changes_nothing(self, cfr_table, monkeypatch):
        default = cross_validate(cfr_table, seed=0)
        runs = []  # per level: how many `_best_splits` passes search it
        passes = tree._passes

        def recording(level):
            found = passes(level)
            runs.append(len(found))
            return found

        monkeypatch.setattr(tree, "_passes", recording)
        # a level whose padding would exceed twice its rows now takes several passes
        monkeypatch.setattr(tree, "_PASS_CELLS", 1)
        split = cross_validate(cfr_table, seed=0)
        assert max(runs) > 1
        assert [(a.hex(), leaves, err.hex(), se.hex()) for a, leaves, err, se in split.table] == \
            [(a.hex(), leaves, err.hex(), se.hex()) for a, leaves, err, se in default.table]
        assert split.tree.alpha.hex() == default.tree.alpha.hex()
        assert_same_tree(split.tree, default.tree)

    @pytest.mark.parametrize("folds", [5, 10])
    @pytest.mark.parametrize("minsplit", [None, 9])
    def test_matches_pruned_fold_trees_on_cfr(self, cfr_table, minsplit, folds):
        for seed in range(10):
            assert_cross_validates_like_reference(cfr_table, minsplit=minsplit, folds=folds, seed=seed)

    def test_matches_pruned_fold_trees_on_categorical_tables(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            tbl = categorical_table(rng)
            minbucket = int(rng.integers(1, 4))
            assert_cross_validates_like_reference(
                tbl, minsplit=2 * minbucket + int(rng.integers(0, 3)), minbucket=minbucket,
                folds=int(rng.integers(2, 11)), seed=int(rng.integers(1000)))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("response", ["inf", "overflow", "huge"])
    def test_matches_pruned_fold_trees_on_extreme_responses(self, response):
        tbl = extreme_table(response)
        for seed in range(5):
            assert_cross_validates_like_reference(tbl, minsplit=5, minbucket=1, folds=10, seed=seed)
        if response == "huge":
            # an eval alpha, the geometric midpoint of two steps, is inf
            cv = cross_validate(tbl, minsplit=5, minbucket=1, folds=10, seed=0)
            alphas = [a for a, _, _, _ in cv.table]
            assert any(math.isinf(a * b) for a, b in zip(alphas, alphas[1:]))

    def test_fold_count_validated(self):
        tbl = table_from_arrays(np.arange(6.0)[:, None], np.arange(6.0))
        with pytest.raises(ValueError, match="folds"):
            cross_validate(tbl, folds=7)

    def test_chosen_alpha_is_member_of_sequence(self, cfr_table):
        cv = cross_validate(cfr_table, minsplit=5, minbucket=1, folds=10, seed=0)
        assert cv.tree.alpha in [a for a, _, _, _ in cv.table]

    def test_cfr_variable_count(self, cfr_table):
        cv = cross_validate(cfr_table, minsplit=5, minbucket=1, folds=10, seed=0)
        assert 6 <= len(cv.tree.used_variables()) <= 8


# ------------------------------------------------------------ importance & predict


class TestImportance:
    def test_root_only_all_zero(self):
        tbl = table_from_arrays(np.arange(4.0)[:, None], np.full(4, 1.0))
        fitted = grow(tbl)
        assert all(v == 0.0 for v in variable_importance(fitted).values())

    def test_single_split_single_variable(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 10.0, 10.0])
        )
        fitted = grow(tbl, minsplit=2, minbucket=1)
        importance = variable_importance(fitted)
        assert importance["v0"] == pytest.approx(100.0)

    def test_percentages_sum_to_100(self, cfr_table):
        fitted = grow(cfr_table, minsplit=5, minbucket=1)
        importance = variable_importance(fitted)
        assert sum(importance.values()) == pytest.approx(100.0)

    @pytest.mark.parametrize("minsplit", [2, 5, 9])
    def test_bit_identical_to_reference_on_cfr_trees(self, cfr_table, minsplit):
        for seed in range(35):
            chosen = cross_validate(cfr_table, minsplit=minsplit, seed=seed).tree
            assert_importance_like_reference(chosen)
            assert_importance_like_reference(replace(chosen, alpha=-math.inf))

    @pytest.mark.parametrize("kind", [tree.NUMERIC, tree.CATEGORICAL])
    def test_bit_identical_to_reference_on_random_tables(self, kind):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n, n_vars = int(rng.integers(4, 41)), int(rng.integers(1, 5))
            if kind == tree.NUMERIC:
                x = np.round(rng.normal(size=(n, n_vars)), 1)
            else:
                x = rng.integers(0, int(rng.integers(2, 6)), (n, n_vars)).astype(float)
            tbl = table_from_arrays(x, rng.normal(size=n), kinds=(kind,) * n_vars)
            assert_importance_like_reference(grow(tbl, minsplit=int(rng.integers(2, 8)), minbucket=1))

    def test_root_only_tree_matches_reference(self):
        fitted = grow(table_from_arrays(np.arange(4.0)[:, None], np.full(4, 1.0)))
        assert fitted.internal_nodes() == []
        assert_importance_like_reference(fitted)

    def test_cfr_top7_set(self, cfr_table):
        cv = cross_validate(cfr_table, minsplit=5, minbucket=1, folds=10, seed=0)
        importance = variable_importance(cv.tree)
        top7 = set(list(importance)[:7])
        assert top7 == {
            "total_cases_thousands",
            "pct_over_65",
            "population_millions",
            "doctors_per_1000",
            "lockdown_days",
            "outbreak_days",
            "hospital_beds_per_1000",
        }


class TestPredict:
    def test_root_only_returns_global_mean(self):
        tbl = table_from_arrays(np.arange(5.0)[:, None], np.array([1.0, 2, 3, 4, 5]))
        fitted = grow(tbl, minsplit=10, minbucket=1)
        assert fitted.predict([99.0])[0] == pytest.approx(3.0)

    def test_toy_routing(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 10.0, 10.0])
        )
        fitted = grow(tbl, minsplit=2, minbucket=1)
        assert fitted.predict([1.0])[0] == 0.0
        assert fitted.predict([4.0])[0] == 10.0

    def test_missing_routed_value_rejected(self):
        tbl = table_from_arrays(
            np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0.0, 0.0, 10.0, 10.0])
        )
        fitted = grow(tbl, minsplit=2, minbucket=1)
        with pytest.raises(ValueError, match="missing"):
            fitted.predict([float("nan")])[0]

    def test_cfr_high_case_mid_population_rule(self, cfr_table):
        cv = cross_validate(cfr_table, minsplit=5, minbucket=1, folds=10, seed=0)
        record = dict.fromkeys(cfr_table.names, 0.0)
        record.update(
            total_cases_thousands=20.0,
            population_millions=40.0,
            pop_density_per_km2=100.0,
            pct_over_65=18.0,
            lockdown_days=15.0,
            outbreak_days=60.0,
            doctors_per_1000=3.5,
            hospital_beds_per_1000=3.0,
            income_level=1.0,
            climate_zone=0.0,
        )
        value = cv.tree.predict([record[n] for n in cfr_table.names])[0]
        assert value == pytest.approx(0.10, abs=0.015)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_prediction_piecewise_constant(self, seed):
        rng = np.random.default_rng(seed)
        tbl = random_table(rng, n=30, n_vars=2)
        fitted = grow(tbl, minsplit=5, minbucket=1)
        thresholds = sorted(
            fitted.rule[i].threshold for i in fitted.internal_nodes() if fitted.rule[i].var == 0
        )
        base = np.array([0.0, tbl.x[:, 1].mean()])
        value = fitted.predict(base)[0]
        # nudge the first coordinate without crossing any split threshold
        eps = min((t - base[0] for t in thresholds if t > base[0]), default=1.0) / 2
        nudged = base.copy()
        nudged[0] += eps * 0.9
        assert fitted.predict(nudged)[0] == value

    def test_prediction_leaves_no_reference_cycles(self, cfr_table):
        fitted = grow(cfr_table, minsplit=5, minbucket=1)
        gc.collect()
        gc.disable()
        try:
            fitted.predict(cfr_table.x)
            # nothing that predict made waits for the cycle collector
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_wrong_width_rejected(self):
        tbl = table_from_arrays(
            np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]]),
            np.array([0.0, 0.0, 10.0, 10.0]),
        )
        fitted = grow(tbl, minsplit=2, minbucket=1)
        for bad in ([1.0], [1.0, 2.0, 3.0], np.zeros((3, 1)), np.zeros((3, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="^record must have 2 values$"):
                fitted.predict(bad)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_routing_matches_per_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 41))
        kinds = tuple(str(k) for k in rng.choice([tree.NUMERIC, tree.CATEGORICAL], size=3))
        x = np.column_stack([
            rng.normal(size=n) if kind == tree.NUMERIC else rng.integers(0, 4, n).astype(float)
            for kind in kinds
        ])
        tbl = Table(("a", "b", "c"), kinds, x, rng.normal(size=n) + 3.0 * (x[:, 0] > 0.5))
        fitted = grow(tbl, minsplit=4, minbucket=1)
        # training rows, then fresh records that include unseen levels
        fresh = np.column_stack([
            rng.normal(scale=2.0, size=20) if kind == tree.NUMERIC
            else rng.integers(-1, 6, 20).astype(float)
            for kind in kinds
        ])
        # no split reads these columns, so a missing value there is no error
        fresh[:, sorted({0, 1, 2} - fitted.used_variables())] = np.nan
        for records in (x, fresh):
            expected = [oracle_route(fitted, row) for row in records]
            assert fitted.predict(records).tolist() == expected
