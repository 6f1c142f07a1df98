"""Sequential model-based hyper-parameter search: GP surrogate + expected improvement.

Points live on the unit cube internally; dimensions map them to integer
ranges and log or linear real ranges. The optimizer minimizes, matching
validation-error objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OptimizationError

KINDS = ("int", "log", "linear")
INITIAL_RANDOM_TRIALS = 5
CANDIDATES_PER_ROUND = 256
GP_NOISE = 1e-6


@dataclass(frozen=True)
class Dimension:
    """One search axis: an integer or a log or linear real range."""

    name: str
    kind: str
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown dimension kind {self.kind!r}; expected one of {KINDS}")
        if not self.low < self.high and not (self.kind == "int" and self.low == self.high):
            raise ConfigError(f"dimension {self.name!r}: bounds must satisfy low < high")
        if self.kind == "log" and self.low <= 0:
            raise ConfigError(f"log dimension {self.name!r} needs positive bounds")

    def from_unit(self, u: float):
        u = min(max(u, 0.0), 1.0)
        if self.kind == "int":
            span = int(self.high) - int(self.low) + 1
            return int(self.low) + min(int(u * span), span - 1)
        if self.kind == "log":
            return float(math.exp(math.log(self.low) + u * (math.log(self.high) - math.log(self.low))))
        return float(self.low + u * (self.high - self.low))

    def cardinality(self) -> int | None:
        """Number of distinct realizable values; None when continuous."""
        if self.kind == "int":
            return int(self.high) - int(self.low) + 1
        return None


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple[Dimension, ...]

    def __post_init__(self):
        if not self.dimensions:
            raise ConfigError("search space has no dimensions")
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate dimension names in {names}")

    def realize(self, unit: np.ndarray) -> dict:
        return {d.name: d.from_unit(float(u)) for d, u in zip(self.dimensions, unit)}

    def point_count(self) -> int | None:
        """Total distinct points, or None if any dimension is continuous."""
        total = 1
        for d in self.dimensions:
            card = d.cardinality()
            if card is None:
                return None
            total *= card
        return total


@dataclass
class Trial:
    point: dict
    objective: float


@dataclass
class BOResult:
    best: Trial
    trials: list[Trial]
    failures: list[dict] = field(default_factory=list)


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def _normal_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _expected_improvement(mu: np.ndarray, sigma: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization under a Gaussian posterior."""
    improvement = best - mu
    ei = np.maximum(improvement, 0.0)
    positive = sigma > 1e-12
    z = np.zeros_like(mu)
    z[positive] = improvement[positive] / sigma[positive]
    ei = np.where(
        positive,
        improvement * _normal_cdf(z) + sigma * _normal_pdf(z),
        ei,
    )
    return ei


class _GaussianProcess:
    """Squared-exponential GP with a median-distance lengthscale.

    Inputs are unit-cube points; targets are standardized internally so the
    unit signal variance is appropriate.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y_mean = float(y.mean())
        self.y_std = float(y.std())
        if self.y_std < 1e-12:
            self.y_std = 1.0
        z = (y - self.y_mean) / self.y_std
        distances = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
        off_diag = distances[np.triu_indices(len(x), k=1)]
        positive = off_diag[off_diag > 1e-12]
        self.lengthscale = float(np.median(positive)) if positive.size else 0.5
        k = self._kernel(x, x) + GP_NOISE * np.eye(len(x))
        self.chol = np.linalg.cholesky(k)
        self.alpha = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, z))

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return np.exp(-0.5 * sq / (self.lengthscale**2))

    def posterior(self, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k_star = self._kernel(candidates, self.x)
        mu = k_star @ self.alpha
        v = np.linalg.solve(self.chol, k_star.T)
        var = np.maximum(1.0 - (v * v).sum(axis=0), 0.0)
        mu_raw = mu * self.y_std + self.y_mean
        sigma_raw = np.sqrt(var) * self.y_std
        return mu_raw, sigma_raw


def bo_optimize(objective, space: SearchSpace, budget: int, seed: int = 0) -> BOResult:
    """Minimize `objective(point_dict)` with GP-guided sequential search.

    Five seeded random trials first, then expected-improvement picks among
    random candidates. Objective exceptions are logged as failures and the
    search moves on; if every attempt fails an OptimizationError is raised.
    Deterministic for a fixed (objective, space, budget, seed).
    """
    if budget < 5:
        raise ConfigError(f"budget must be >= 5, got {budget}")
    rng = np.random.default_rng(seed)
    d = len(space.dimensions)
    unit_points: list[np.ndarray] = []
    values: list[float] = []
    trials: list[Trial] = []
    failures: list[dict] = []
    seen: set[tuple] = set()
    finite_total = space.point_count()

    def point_key(point: dict) -> tuple:
        return tuple(point[dim.name] for dim in space.dimensions)

    def evaluate(unit: np.ndarray) -> None:
        point = space.realize(unit)
        key = point_key(point)
        seen.add(key)
        try:
            score = float(objective(point))
        except Exception as exc:  # noqa: BLE001 - objective is user code
            failures.append({"point": point, "error": f"{type(exc).__name__}: {exc}"})
            return
        if not math.isfinite(score):
            failures.append({"point": point, "error": f"non-finite objective {score!r}"})
            return
        unit_points.append(unit)
        values.append(score)
        trials.append(Trial(point=point, objective=score))

    def fresh_random_unit() -> np.ndarray:
        for _ in range(64):
            unit = rng.uniform(size=d)
            if point_key(space.realize(unit)) not in seen:
                return unit
        return rng.uniform(size=d)

    attempts = 0
    while attempts < budget:
        if finite_total is not None and len(seen) >= finite_total:
            break  # space exhausted, nothing new to try
        if len(values) < INITIAL_RANDOM_TRIALS:
            unit = fresh_random_unit()
        else:
            gp = _GaussianProcess(np.array(unit_points), np.array(values))
            candidates = rng.uniform(size=(CANDIDATES_PER_ROUND, d))
            mu, sigma = gp.posterior(candidates)
            ei = _expected_improvement(mu, sigma, min(values))
            order = np.argsort(-ei)
            unit = None
            for index in order:
                if point_key(space.realize(candidates[index])) not in seen:
                    unit = candidates[index]
                    break
            if unit is None:
                unit = fresh_random_unit()
        evaluate(unit)
        attempts += 1

    if not trials:
        raise OptimizationError(f"all {len(failures)} trials failed")
    best = min(trials, key=lambda t: t.objective)  # the earliest of equal objectives
    return BOResult(best=best, trials=trials, failures=failures)

