"""Error taxonomy.

Every domain-level failure raises a subclass of DomainError so the CLI can map
them all to a single exit code. The class name is the machine-readable tag;
the message carries the specifics.
"""


class DomainError(Exception):
    """Base class for all input and domain errors."""

    @property
    def tag(self):
        return type(self).__name__


class Disconnected(DomainError):
    pass


class LoopOrMultiEdge(DomainError):
    pass


class BoundaryTooSmall(DomainError):
    pass


class BoundaryEdge(DomainError):
    pass


class BadParameter(DomainError):
    pass


class GroundTooLarge(DomainError):
    pass


class GraphTooLarge(DomainError):
    pass


class UnknownLabel(DomainError):
    pass


class OverlappingSets(DomainError):
    pass


class NotDivisible(DomainError):
    pass


class FieldTooSmall(DomainError):
    pass


class MissingWeight(DomainError):
    pass


class SingularInterior(DomainError):
    pass


class MissingVariable(DomainError):
    pass


class ZeroRestriction(DomainError):
    pass


class NotPlanar(DomainError):
    pass


class BoundaryOrderMismatch(DomainError):
    pass


class DegreeOneVertex(DomainError):
    pass


class InteriorDegreeTwo(DomainError):
    pass


class NotACocircuit(DomainError):
    pass


class NoCover(DomainError):
    pass


class ConsistencyError(DomainError):
    """Two routes that must agree did not.  Always a bug or a genuinely
    pathological input; never expected on shipped examples."""
