"""Exception taxonomy.

Every failure the library raises deliberately derives from LcmlatError, so
callers (and the CLI) can separate bad input from resource limits from
genuine internal invariant violations.
"""


class LcmlatError(Exception):
    """Base class for all library errors."""


class InvalidInput(LcmlatError):
    """Malformed user data: bad JSON shape, unknown variable, negative exponent."""


class CyclicRelation(LcmlatError):
    """The supplied order relation has a directed cycle through distinct elements."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"elements {a} and {b} are related in both directions")


class NotASemilattice(LcmlatError):
    """Some pair of elements has no unique least upper bound."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"elements {a} and {b} have no unique least upper bound")


class NotJoinPreserving(LcmlatError):
    """A map fails phi(a v b) = phi(a) v phi(b) for some pair."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"map does not preserve the join of elements {a} and {b}")


class NotAtomistic(LcmlatError):
    """Operation requires every element to be a join of atoms."""


class NotSurjective(LcmlatError):
    """Operation requires a surjective map."""


class NotMeetIrreducible(LcmlatError):
    """Collapse target must be covered by exactly one element."""

    def __init__(self, a):
        self.a = a
        super().__init__(f"element {a} is not meet-irreducible")


class NotSquarefree(LcmlatError):
    """Operation is only defined for squarefree generators."""


class NotAntichain(LcmlatError):
    """Supplied elements must be pairwise incomparable."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        super().__init__(f"elements {a} and {b} are comparable")


class InvalidWeighting(LcmlatError):
    """A weight assignment violates the realizability conditions."""


class InvalidDeformation(LcmlatError):
    """An exponent shift breaks order preservation or moves a zero exponent."""

    def __init__(self, i, k, j, reason):
        self.i, self.k, self.j = i, k, j
        super().__init__(
            f"generators ({i}, {k}), variable {j}: {reason}"
        )


class EmptyModule(LcmlatError):
    """The two ideals of a quotient pair coincide, so the module is zero."""


class InternalError(LcmlatError):
    """A result failed its independent check: a bug, never a property of the input."""


class LimitExceeded(LcmlatError):
    """A configured size cap would be exceeded; raised before work starts when possible."""
