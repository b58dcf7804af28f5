"""State spaces, action grids, policies, and the required-effort MDP.

States are the discrete effort levels the public currently demands; the top
state is the backlash level triggered by a harm event. Actions are effort
choices on a fine grid that always contains every state level exactly, so
"comply exactly" is always available.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, DomainError, FeasibilityError
from .primitives import CostModel, DriftModel, HarmModel

_LEVEL_ATOL = 1e-9


def _nearest(values: np.ndarray, x):
    """Index of the sorted value nearest to x, and the distance to it, for each x.

    The nearest value sits on one side of x's insertion point, and |v - x|
    rounds monotonically in v, so no other value is nearer; of two equally
    near neighbours the lower wins, as argmin's first minimum does. Rounding
    can also tie values that are not neighbours, of which argmin took the
    lowest (at x = inf, say); within the 1e-9 tolerance the callers apply,
    that takes two values below 2e-9 less than 2.1e-25 apart. A NaN x is NaN
    away from every value, so no tolerance accepts it.
    """
    j = values.searchsorted(x)
    lo = j - (j > 0)
    i = lo + (abs(values[j - (j == values.size)] - x) < abs(values[lo] - x))
    return i, abs(values[i] - x)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Strictly increasing effort levels; the last one is the backlash state."""

    levels: np.ndarray

    def __post_init__(self):
        arr = np.array(self.levels, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConstructionError("a state space needs at least two levels")
        if not np.all(np.isfinite(arr)) or arr[0] < 0:
            raise ConstructionError("levels must be finite and non-negative")
        if np.any(np.diff(arr) <= 0):
            raise ConstructionError("levels must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)

    @property
    def n_states(self) -> int:
        return self.levels.size

    @property
    def backlash_index(self) -> int:
        return self.levels.size - 1

    @property
    def backlash_level(self) -> float:
        return float(self.levels[-1])

    def index_of(self, level: float) -> int:
        """Index of the state matching `level` (within 1e-9)."""
        i, distance = _nearest(self.levels, level)
        if not distance <= _LEVEL_ATOL:
            raise DomainError(f"{level!r} is not a state level")
        return int(i)


def build_state_space(
    min_effort: float, max_effort: float, n_states: int, backlash_effort: float
) -> StateSpace:
    """Uniform levels from min_effort up to the backlash level.

    n_states - 1 evenly spaced levels cover [min_effort, backlash_effort) and
    the backlash level itself tops the space. backlash_effort must exceed
    min_effort and stay within the effort ceiling max_effort.
    """
    if n_states < 2:
        raise ConstructionError(f"n_states must be at least 2, got {n_states}")
    if not 0 <= min_effort < backlash_effort:
        raise ConstructionError(
            f"need 0 <= min_effort < backlash_effort, got {min_effort} and {backlash_effort}"
        )
    if backlash_effort > max_effort:
        raise ConstructionError(
            f"backlash_effort {backlash_effort} exceeds the effort ceiling {max_effort}"
        )
    return StateSpace(np.linspace(min_effort, backlash_effort, n_states))


@dataclass(frozen=True, eq=False)
class ActionGrid:
    """Strictly increasing candidate efforts covering [0, e_max]."""

    efforts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.efforts, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ConstructionError("an action grid needs at least two efforts")
        if arr[0] != 0.0:
            raise ConstructionError("the action grid must start at zero effort")
        bad = ~np.isfinite(arr)  # a NaN or inf passes the increase check below
        if bad.any():
            raise ConstructionError(
                f"action efforts must be finite, got {float(arr[bad.argmax()])!r}"
            )
        if np.any(np.diff(arr) <= 0):
            raise ConstructionError("action efforts must be strictly increasing")
        arr.setflags(write=False)
        object.__setattr__(self, "efforts", arr)

    @property
    def e_max(self) -> float:
        return float(self.efforts[-1])

    def require_member(self, e: float) -> float:
        """Return the grid effort matching e (within 1e-9) or raise."""
        i, distance = _nearest(self.efforts, e)
        if not distance <= _LEVEL_ATOL:
            raise DomainError(f"effort {e!r} is not on the action grid")
        return float(self.efforts[i])


def build_action_grid(e_max: float, step: float, levels=()) -> ActionGrid:
    """Uniform grid of the given step on [0, e_max], merged with state levels.

    Any uniform point colliding with a level (within 1e-12) is replaced by the
    exact level value, so every state level is a grid member bit-for-bit.
    """
    if not e_max > 0:
        raise ConstructionError(f"e_max must be positive, got {e_max}")
    if not step > 0:
        raise ConstructionError(f"step must be positive, got {step}")
    n = int(math.floor(e_max / step * (1.0 + 1e-12)))
    base = np.arange(n + 1, dtype=float) * step
    if base[-1] < e_max - 1e-12:
        base = np.append(base, e_max)
    lv = np.asarray(levels, dtype=float)
    if lv.size:
        if np.isnan(lv).any():  # a NaN would pass the merge and the ceiling check
            raise ConstructionError(f"state levels must be numbers, got {lv.tolist()}")
        if lv.max() > e_max + 1e-12:
            raise ConstructionError(
                f"state level {lv.max()} exceeds the action ceiling {e_max}"
            )
        grid = np.sort(np.concatenate([base[_nearest(np.sort(lv), base)[1] > 1e-12], lv]))
    else:
        grid = base
    return ActionGrid(grid)


@dataclass(frozen=True, eq=False)
class Policy:
    """One effort choice per state; never below the state's required level."""

    space: StateSpace
    efforts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.efforts, dtype=float)
        if arr.shape != self.space.levels.shape:
            raise ConstructionError("policy needs exactly one effort per state")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ConstructionError("policy efforts must be finite and non-negative")
        short = arr < self.space.levels - 1e-12
        if np.any(short):
            bad = [
                f"state {lv:g} gets effort {ef:g}"
                for lv, ef in zip(self.space.levels[short], arr[short])
            ]
            raise FeasibilityError("policy falls below required effort: " + ", ".join(bad))
        arr.setflags(write=False)
        object.__setattr__(self, "efforts", arr)

    @classmethod
    def comply(cls, space: StateSpace) -> "Policy":
        """Exert exactly the required effort in every state."""
        return cls(space, space.levels.copy())

    @classmethod
    def threshold(cls, space: StateSpace, tau: float) -> "Policy":
        """Exert max(tau, required effort) in every state."""
        if not np.isfinite(tau) or tau < 0:
            raise DomainError(f"threshold must be finite and non-negative, got {tau}")
        return cls(space, np.maximum(space.levels, tau))


@dataclass(frozen=True, eq=False)
class RegulationMdp:
    """The required-effort process a platform faces under adaptive regulation.

    In state e_c the platform picks an effort e >= e_c from the action grid.
    A harm event (probability harm.prob(e), independent of the state) resets
    the requirement to the backlash level; otherwise the requirement drifts
    one level down with the state's drift probability or stays put. The
    per-period reward is -cost(e); future periods are discounted by gamma.

    cost_ceiling is c(e_max), the worst per-period cost, kept from
    `CostModel.ceiling` at construction; that also refuses a cost whose
    c(e_max), slope or value scale c(e_max) / (1 - gamma) is not finite.
    The value floor, the residual bounds, the Monte Carlo horizon and its
    truncation bound all read it.
    """

    space: StateSpace
    actions: ActionGrid
    harm: HarmModel  # any object with prob/derivative methods works here
    cost: CostModel
    drift: DriftModel
    gamma: float
    cost_ceiling: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(f"gamma must lie in [0, 1), got {self.gamma}")
        if len(self.drift) != self.space.n_states:
            raise ConstructionError(
                f"drift defines {len(self.drift)} states but the space has {self.space.n_states}"
            )
        if self.actions.e_max < self.space.backlash_level - 1e-12:
            raise ConstructionError("the action grid must reach the backlash level")
        object.__setattr__(self, "cost_ceiling", self.cost.ceiling(self.actions.e_max, self.gamma))
        off = _nearest(self.actions.efforts, self.space.levels)[1] > _LEVEL_ATOL
        if off.any():  # each level must sit on the grid; name the first that does not
            raise DomainError(
                f"effort {float(self.space.levels[off.argmax()])!r} is not on the action grid"
            )

    def transition_distribution(self, e_c: float, e: float):
        """Support and probabilities of the next state, as (level, prob) pairs.

        Entries with identical target states are merged and zero-probability
        entries dropped, so the pairs always form a minimal distribution.
        """
        i = self.space.index_of(e_c)
        e = self.actions.require_member(e)
        if e < e_c - 1e-12:
            raise FeasibilityError(f"effort {e} falls below the required level {e_c}")
        h = float(self.harm.prob(e))
        g = self.drift.prob(i)
        masses = {self.space.backlash_index: h}
        if i > 0 and g > 0:
            masses[i - 1] = masses.get(i - 1, 0.0) + (1.0 - h) * g
            masses[i] = masses.get(i, 0.0) + (1.0 - h) * (1.0 - g)
        else:
            masses[i] = masses.get(i, 0.0) + (1.0 - h)
        return [
            (float(self.space.levels[j]), p) for j, p in sorted(masses.items()) if p > 0.0
        ]

    def transition_matrix(self, efforts) -> np.ndarray:
        """Dense one-step transition matrix under the given per-state efforts."""
        e = np.asarray(efforts, dtype=float)
        h = np.asarray(self.harm.prob(e))
        g = self.drift.probs
        n = self.space.n_states
        p = np.zeros((n, n))
        idx = np.arange(n)
        p[idx, n - 1] += h
        p[idx, idx] += (1.0 - h) * (1.0 - g)  # g[0] is pinned to 0: state 0 cannot drift
        p[idx[1:], idx[1:] - 1] += (1.0 - h[1:]) * g[1:]
        return p
