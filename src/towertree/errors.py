"""Exception types shared across the package."""


class TowerTreeError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(TowerTreeError):
    """Construction-time invariant violated (bad bond, empty level, ...)."""


class IndexOutOfRange(TowerTreeError):
    """A level or radius index outside 1..depth (or 0..depth for spheres)."""


class ElementNotInLevel(TowerTreeError):
    """An element id was not found in the level it was claimed to be in."""


class DepthExhausted(TowerTreeError):
    """A construction needed indices beyond the truncation depth."""


class SourceTargetMismatch(TowerTreeError):
    """Two morphisms or maps do not share the towers/trees they must share."""


class VertexNotFound(TowerTreeError):
    """A vertex is not part of the tree it was used with."""


class EmptyCore(TowerTreeError):
    """No complete branch exists, so the geodesically complete core is trivial."""


class DifferentTowers(TowerTreeError):
    """Threads of distinct group towers were combined."""


class UnsupportedMode(TowerTreeError):
    """Operation requires the other ultrametric mode (grid vs rational)."""


class NotProper(TowerTreeError):
    """No properness witness exists at any horizon level."""


class NotLevelMorphism(TowerTreeError):
    """A strictly level-preserving morphism was required."""


class NotML(TowerTreeError):
    """Operation requires an ml_verdict of Holds."""


class WindowOverflow(TowerTreeError):
    """Coherence forces an integer outside a windowed level's bound."""


class InvalidParameter(TowerTreeError):
    """A generator or query parameter is outside its documented range."""


class ParseError(TowerTreeError):
    """Input text does not parse; carries a position when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        base = super().__str__()
        if self.line is not None:
            return f"{base} (line {self.line}, column {self.column})"
        return base
