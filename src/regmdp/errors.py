"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ConstructionError(ValueError):
    """Inputs cannot form a valid model, grid, or state space."""


class FeasibilityError(ValueError):
    """An action falls below the effort the current state requires."""


class HorizonTooShortError(ValueError):
    """The requested horizon cannot meet the truncation-bias target."""

    def __init__(self, horizon: int, minimal_horizon: int, bound: float, target: float):
        self.minimal_horizon = minimal_horizon
        super().__init__(
            f"horizon {horizon} leaves a truncation bias bound of {float(bound)!r}, "
            f"above the target {float(target)!r}; use horizon >= {minimal_horizon}"
        )


class InsufficientMaxEffortError(RuntimeError):
    """The effort ceiling is too low for the backlash construction to bracket."""

    def __init__(self, k_constant: float, cost_at_max: float):
        self.k_constant = k_constant
        self.cost_at_max = cost_at_max
        super().__init__(
            "insufficient maximum effort: no backlash level up to the effort "
            f"ceiling is costly enough to reach the bracket constant K={k_constant:.6g} "
            f"(cost at the ceiling is {cost_at_max:.6g}); raise the effort ceiling, "
            "lower the discount factor, or use a steeper cost curve"
        )


class ConfigError(ValueError):
    """A scenario document failed to parse or validate."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
