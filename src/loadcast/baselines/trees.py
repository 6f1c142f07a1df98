"""Regression tree and gradient-boosted ensemble with exact greedy splits."""

from __future__ import annotations

import heapq
import itertools
import warnings

import numpy as np

from ..errors import ConfigWarning, InsufficientDataError
from ..series import SupervisedWindowSet, holdout_count

MIN_GAIN = 1e-12


def best_split(
    features: np.ndarray, targets: np.ndarray, min_child: int = 1
) -> tuple[int, float, float] | None:
    """Exact variance-reduction scan over every feature and threshold.

    Returns (feature index, midpoint threshold, SSE reduction) for the best
    split, or None when no split improves. Thresholds sit between distinct
    sorted values, so the result is invariant to sample order; ties prefer
    the lowest feature index, then the lowest threshold. All columns are
    scanned at once: one argsort, one cumulative sum each of y and y * y,
    and one gain per (cut, feature) pair, with cuts that fall inside a run
    of equal values set to -inf.
    """
    n, k = len(targets), max(min_child, 1)
    if n < 2 * k:
        return None
    total = float(targets.sum())
    total_sq = float((targets * targets).sum())
    parent = total_sq - total * total / n
    # A cut after sorted row i leaves i + 1 rows on the left and n - i - 1 on
    # the right, so the cuts with k rows on each side are rows lo .. hi - 1.
    lo, hi = k - 1, n - k
    order = np.argsort(features, axis=0)
    xs = np.take_along_axis(features, order, axis=0)
    ys = targets[order]
    cum = np.cumsum(ys, axis=0)[lo:hi]
    cum_sq = np.cumsum(ys * ys, axis=0)[lo:hi]
    left_count = np.arange(lo + 1, hi + 1)[:, None]
    right_count = n - left_count
    left_sse = cum_sq - cum**2 / left_count
    right_sse = (total_sq - cum_sq) - (total - cum) ** 2 / right_count
    gains = parent - left_sse - right_sse
    gains[~(xs[lo:hi] < xs[lo + 1 : hi + 1])] = -np.inf
    picks = np.argmax(gains, axis=0)
    best: tuple[int, float, float] | None = None
    for f, pick in enumerate(picks):
        gain = float(gains[pick, f])
        if gain <= MIN_GAIN:
            continue
        if best is None or gain > best[2]:
            row = lo + pick
            best = (f, float((xs[row, f] + xs[row + 1, f]) / 2.0), gain)
    return best


#: The node arrays of a RegressionTree and their dtypes.
_COLUMNS = {"feature": np.intp, "threshold": np.float64, "left": np.intp, "right": np.intp, "value": np.float64}


class RegressionTree:
    """CART-style tree grown best-first so the leaf budget binds gracefully.

    Candidate leaves are expanded in order of decreasing variance reduction
    until max_leaves is reached, depth runs out, or no split improves. Nodes
    are parallel arrays in growth order, root first: `feature` (-1 at a
    leaf), `threshold`, `left`, `right` (a leaf points at itself) and `value`
    (the prediction, read at leaves only).
    """

    def __init__(self, max_depth: int = 4, max_leaves: int = 25, min_child_samples: int = 1):
        self.max_depth = max_depth
        self.max_leaves = max_leaves
        self.min_child_samples = min_child_samples
        self.feature = self.threshold = self.left = self.right = self.value = None

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "RegressionTree":
        return self.fit_arrays(windows.inputs, windows.targets)

    def fit_arrays(self, features: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        if len(targets) == 0:
            raise InsufficientDataError("cannot fit a tree on zero samples")
        nodes: list[list] = []  # one [feature, threshold, left, right, value] per node
        tiebreak = itertools.count()
        heap: list[tuple[float, int, int, np.ndarray, tuple[int, float], int]] = []

        def add_leaf(index: np.ndarray) -> int:
            nodes.append([-1, 0.0, len(nodes), len(nodes), float(targets[index].mean())])
            return len(nodes) - 1

        def consider(node: int, index: np.ndarray, depth: int):
            if depth >= self.max_depth:
                return
            found = best_split(features[index], targets[index], self.min_child_samples)
            if found is None:
                return
            f, threshold, gain = found
            heapq.heappush(heap, (-gain, next(tiebreak), node, index, (f, threshold), depth))

        all_index = np.arange(len(targets))
        consider(add_leaf(all_index), all_index, 0)
        while heap and len(nodes) < 2 * self.max_leaves - 1:  # a split adds one leaf, two nodes
            _, _, node, index, (f, threshold), depth = heapq.heappop(heap)
            mask = features[index, f] <= threshold
            left_index, right_index = index[mask], index[~mask]
            nodes[node][:4] = [f, threshold, add_leaf(left_index), add_leaf(right_index)]
            consider(nodes[node][2], left_index, depth + 1)
            consider(nodes[node][3], right_index, depth + 1)
        for (name, dtype), column in zip(_COLUMNS.items(), zip(*nodes)):
            setattr(self, name, np.array(column, dtype=dtype))
        return self

    @property
    def root(self) -> "RegressionTree | None":
        """The tree itself once fitted, else None, so `tree.root.is_leaf` reads naturally."""
        return None if self.feature is None else self

    @property
    def is_leaf(self) -> bool:
        """True when the fitted tree is a single leaf: no split improved."""
        return bool(self.feature[0] < 0)

    def _descend(self, features: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The leaf reached from each start node, walked for all rows at once.

        A leaf is its own child, so rows that reach theirs early stay put
        while the rest go on, for at most max_depth levels. `node` may have
        any shape whose last axis runs over the rows of `features`.
        """
        rows = np.arange(len(features))
        for _ in range(self.max_depth):
            split_on = self.feature[node]
            if (split_on < 0).all():
                break
            go_left = features[rows, split_on] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.feature is None:
            raise InsufficientDataError("tree is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        return self.value[self._descend(features, np.zeros(len(features), dtype=np.intp))]

    def depth(self) -> int:
        if self.feature is None:
            return 0
        frontier, depth = np.zeros(1, dtype=np.intp), 0
        while (inner := frontier[self.feature[frontier] >= 0]).size:
            frontier, depth = np.concatenate([self.left[inner], self.right[inner]]), depth + 1
        return depth

    def leaf_count(self) -> int:
        return 0 if self.feature is None else int((self.feature < 0).sum())


def _stack(trees: list[RegressionTree]) -> tuple[RegressionTree, np.ndarray]:
    """All trees' nodes end to end in one tree, plus the index of each tree's root."""
    sizes = [len(tree.feature) for tree in trees]
    starts = np.cumsum([0] + sizes[:-1]).astype(np.intp)
    joint = RegressionTree(max_depth=max(tree.max_depth for tree in trees))
    for name in _COLUMNS:
        setattr(joint, name, np.concatenate([getattr(tree, name) for tree in trees]))
    shift = np.repeat(starts, sizes)
    joint.left, joint.right = joint.left + shift, joint.right + shift
    return joint, starts


class GradientBoostedTrees:
    """Stagewise boosting of shallow exact-split trees on squared error.

    Early stopping watches MSE on the `holdout_count` newest windows with
    the configured patience; the kept ensemble is the best-scoring prefix.
    """

    def __init__(
        self,
        estimators: int = 500,
        learning_rate: float = 0.01,
        subsample: float = 0.8,
        min_child_samples: int = 90,
        early_stopping_rounds: int = 400,
        inner_depth: int = 3,
    ):
        self.estimators = estimators
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_child_samples = min_child_samples
        self.early_stopping_rounds = early_stopping_rounds
        self.inner_depth = inner_depth
        self.initial: float | None = None
        self.trees: list[RegressionTree] = []
        self._stacked: tuple[RegressionTree, np.ndarray] | None = None

    def fit(self, windows: SupervisedWindowSet, seed: int = 0) -> "GradientBoostedTrees":
        features, targets = windows.inputs, windows.targets
        n = len(targets)
        if n < 2:
            raise InsufficientDataError(f"boosting needs >= 2 windows, got {n}")
        val_count = holdout_count(n)
        fit_count = n - val_count
        train_x, train_y = features[:fit_count], targets[:fit_count]
        val_x, val_y = features[fit_count:], targets[fit_count:]

        rng = np.random.default_rng(seed)
        self.initial = float(train_y.mean())
        self.trees = []
        residual = train_y - self.initial
        val_pred = np.full(val_count, self.initial)
        best_val = float(np.mean((val_y - val_pred) ** 2)) if val_count else np.inf
        best_round = 0
        stale = 0
        sample_size = max(1, int(round(self.subsample * fit_count)))
        if 2 * self.min_child_samples > sample_size:
            warnings.warn(
                f"min_child_samples {self.min_child_samples} needs {2 * self.min_child_samples} rows "
                f"to split but each tree sees {sample_size}: no tree can split, so GBT "
                "will predict a constant near the training mean",
                ConfigWarning,
                stacklevel=2,
            )
        for _ in range(self.estimators):
            if self.subsample < 1.0:
                chosen = rng.choice(fit_count, size=sample_size, replace=False)
            else:
                chosen = np.arange(fit_count)
            tree = RegressionTree(
                max_depth=self.inner_depth, max_leaves=2**self.inner_depth,
                min_child_samples=self.min_child_samples,
            )
            tree.fit_arrays(train_x[chosen], residual[chosen])
            self.trees.append(tree)
            residual -= self.learning_rate * tree.predict(train_x)
            if val_count:
                val_pred += self.learning_rate * tree.predict(val_x)
                val_mse = float(np.mean((val_y - val_pred) ** 2))
                if val_mse < best_val - 1e-15:
                    best_val = val_mse
                    best_round = len(self.trees)
                    stale = 0
                else:
                    stale += 1
                    if stale >= self.early_stopping_rounds:
                        break
        if val_count and best_round < len(self.trees):
            self.trees = self.trees[:best_round]
        self._stacked = _stack(self.trees) if self.trees else None
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Walks all kept trees at once; adding leaves in boosting order keeps sums bitwise."""
        if self.initial is None:
            raise InsufficientDataError("model is not fitted")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if not self.trees:
            return np.full(len(features), self.initial)
        joint, starts = self._stacked
        start = np.broadcast_to(starts[:, None], (len(starts), len(features)))
        leaves = joint.value[joint._descend(features, start)]
        leaves *= self.learning_rate
        leaves[0] += self.initial
        # cumsum adds row after row, so its last row is initial + leaf 1 + leaf 2 + ... in boosting order
        return np.cumsum(leaves, axis=0, out=leaves)[-1].copy()

    def training_curve(self, features: np.ndarray, targets: np.ndarray) -> list[float]:
        """MSE after each boosting round, for monotonicity diagnostics."""
        pred = np.full(len(targets), self.initial)
        curve = [float(np.mean((targets - pred) ** 2))]
        for tree in self.trees:
            pred += self.learning_rate * tree.predict(features)
            curve.append(float(np.mean((targets - pred) ** 2)))
        return curve
