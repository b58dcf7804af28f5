"""Parametric families for harm probability, moderation cost, drift, and welfare.

Every model here is a frozen dataclass: immutable after construction and safe
to share across threads or processes. Evaluation methods accept a scalar or a
numpy array of efforts and return a matching scalar or array.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, DomainError


def _effort_array(e) -> np.ndarray:
    """e as a float array (a float64 scalar for a float), once it is finite and >= 0.

    A NaN fails both comparisons, so min >= 0 and max < inf reject NaN, +-inf
    and negatives alike; an empty array has nothing to reject.
    """
    if isinstance(e, float):  # the hot scalar case: no array, no reduction
        if not 0.0 <= e < math.inf:
            raise DomainError(f"effort must be finite and non-negative, got {e!r}")
        return np.float64(e)
    arr = np.asarray(e, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() < math.inf):
        raise DomainError(f"effort must be finite and non-negative, got {e!r}")
    return arr


def _match_input(arr: np.ndarray):
    # scalar in, scalar out
    return float(arr) if arr.ndim == 0 else arr


@dataclass(frozen=True)
class HarmModel:
    """Per-period probability that platform activity causes a harm event.

    prob(e) = h_min + (h_max - h_min) * exp(-k * e): strictly decreasing and
    convex in effort, bounded inside (0, 1] for every e >= 0. More effort
    always buys a strictly lower chance of harm, at diminishing rates.
    """

    h_min: float
    h_max: float
    k: float

    def __post_init__(self):
        if not 0.0 < self.h_min < 1.0:
            raise ConstructionError(f"h_min must lie in (0, 1), got {self.h_min}")
        if not self.h_min < self.h_max <= 1.0:
            raise ConstructionError(
                f"h_max must lie in (h_min, 1], got h_max={self.h_max} with h_min={self.h_min}"
            )
        if not 0 < self.k <= sys.float_info.max:  # also refuses an int no float holds
            raise ConstructionError(f"decay rate k must be positive and finite, got {self.k}")

    def prob(self, e):
        e = _effort_array(e)
        return _match_input(self.h_min + (self.h_max - self.h_min) * np.exp(-self.k * e))

    def derivative(self, e):
        e = _effort_array(e)
        return _match_input(-self.k * (self.h_max - self.h_min) * np.exp(-self.k * e))


@dataclass(frozen=True)
class CostModel:
    """Quadratic moderation cost c(e) = a * e**2 + b * e.

    Zero at zero effort, strictly increasing and strictly convex for e >= 0.
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0 < self.a <= sys.float_info.max:
            raise ConstructionError(
                f"quadratic coefficient a must be positive and finite, got {self.a}"
            )
        if not 0 < self.b <= sys.float_info.max:
            raise ConstructionError(
                f"linear coefficient b must be positive and finite, got {self.b}"
            )

    def value(self, e):
        e = _effort_array(e)
        return _match_input(self.a * e * e + self.b * e)

    def derivative(self, e):
        e = _effort_array(e)
        return _match_input(2.0 * self.a * e + self.b)

    def ceiling(self, e_max, gamma: float) -> float:
        """c(e_max), the worst per-period cost on the action grid [0, e_max].

        c(e_max), its slope and the value scale c(e_max) / (1 - gamma) bound
        every cost, slope and value that solves and rollouts form, so all
        three must be finite; otherwise ConstructionError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            c_top = float(self.value(e_max))
            scales = (c_top, float(self.derivative(e_max)), c_top / (1.0 - gamma))
        if not all(map(math.isfinite, scales)):
            raise ConstructionError(
                f"the cost must keep c(e_max), c'(e_max) and c(e_max) / (1 - gamma) finite "
                f"at e_max {e_max!r} and gamma {gamma!r}, got {scales}"
            )
        return c_top


@dataclass(frozen=True, eq=False)
class DriftModel:
    """Per-state probability that the required effort drifts one level down.

    probs[i] is the chance that, absent a harm event, the public standard for
    state i relaxes to the adjacent lower level. The lowest state has nowhere
    to go, so probs[0] must be exactly zero.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ConstructionError("drift probabilities must form a non-empty 1-d sequence")
        if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
            raise ConstructionError("drift probabilities must lie in [0, 1]")
        if arr[0] != 0.0:
            raise ConstructionError(
                f"the lowest state cannot drift lower; probs[0] must be exactly 0, got {arr[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @classmethod
    def constant(cls, p: float, n_states: int) -> "DriftModel":
        """Same drift probability p everywhere except the pinned lowest state."""
        if n_states < 1:
            raise ConstructionError(f"n_states must be at least 1, got {n_states}")
        arr = np.full(n_states, float(p))
        arr[0] = 0.0
        return cls(arr)

    def prob(self, index: int) -> float:
        return float(self.probs[index])

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class WelfareModel:
    """Society's per-period payoff: expected harm damage plus moderation cost.

    expected_welfare(e) = -prob(e) * damage - cost(e). Strictly concave in
    effort whenever the harm family is convex, so the maximizer is unique.
    """

    harm: HarmModel
    cost: CostModel
    damage: float

    def __post_init__(self):
        if not 0 <= self.damage <= sys.float_info.max:
            raise ConstructionError(f"damage must be finite and non-negative, got {self.damage}")

    def expected_welfare(self, e):
        return -(self.harm.prob(e) * self.damage) - self.cost.value(e)

    def marginal_welfare(self, e):
        return -(self.harm.derivative(e) * self.damage) - self.cost.derivative(e)


def _bisect(holds, lo: float, hi: float, tol: float) -> float:
    """Midpoint of the bracket that bisection on a predicate leaves behind.

    The predicate holds at lo and fails at hi; each step keeps lo wherever it
    holds. The search stops once hi - lo <= tol or the midpoint no longer lies
    strictly inside the bracket, so tol = 0 means "to float resolution" and no
    tolerance below the float spacing can stall it.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def socially_optimal_effort(model: WelfareModel, *, e_max: float = 1.0) -> float:
    """Effort level maximizing expected welfare on [0, e_max].

    Marginal welfare is strictly decreasing, so the interior first-order
    condition -h'(e) * damage = c'(e) has at most one root, found by bisection
    to float resolution; when no interior root exists the maximizing boundary
    is returned. With damage zero the marginal is negative everywhere and the
    answer is 0.
    """
    if not e_max > 0:
        raise DomainError(f"e_max must be positive, got {e_max}")
    if model.marginal_welfare(0.0) <= 0.0:
        return 0.0
    if model.marginal_welfare(e_max) >= 0.0:
        return float(e_max)
    return _bisect(lambda e: model.marginal_welfare(e) > 0.0, 0.0, float(e_max), 0.0)
