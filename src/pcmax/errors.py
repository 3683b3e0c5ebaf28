"""Exception types shared across the package."""


class PresentationError(ValueError):
    """A presentation (or an argument tied to one) is structurally invalid."""


class InconsistentPresentation(PresentationError):
    """A presentation failed its overlap consistency test or certificate."""


class HomCheckFailed(ValueError):
    """Generator images violate a defining relation.

    Carries the relation that failed, so callers can report a witness; a
    generating pair that does not extend makes `autom.certify_family`
    return a failed family, which the drivers report as a FAIL line.
    """

    def __init__(self, relation: str):
        super().__init__(f"relation does not hold under the images: {relation}")
        self.relation = relation


class PreconditionRefused(RuntimeError):
    """A driver refused to run because its hypotheses are not met."""
