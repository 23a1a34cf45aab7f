"""Exception types shared across the package."""


class KronmixError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(KronmixError):
    """A graph or decomposition violates a structural precondition."""


class DanglingNode(KronmixError):
    """A node with out-degree zero where a transition row is required."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"node {node} has out-degree 0; add a self-loop or lazify first")


class NotStochastic(KronmixError):
    """A matrix row fails the row-stochastic invariant."""

    def __init__(self, row: int, detail: str = ""):
        self.row = row
        super().__init__(f"row {row} is not stochastic{': ' + detail if detail else ''}")


class NotErgodic(KronmixError):
    """The chain is reducible or periodic where ergodicity is required."""


class FailedToConverge(KronmixError):
    """An iterative estimate hit its cap before stabilizing."""


class TooLarge(KronmixError):
    """The requested operator or solve would exceed a size cap."""


class SpecError(KronmixError):
    """Invalid topology or experiment parameters."""


class ParseError(KronmixError):
    """Malformed input file."""

    def __init__(self, line_number: int, detail: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {detail}")


class EmptyGraph(KronmixError):
    """An edge list contained no edges."""


class NonConvergent(KronmixError):
    """The belief dynamics oscillate instead of settling."""


class NoUniqueFixedPoint(KronmixError):
    """The fixed-point iteration stalled; the solution set is not a point."""
