"""Exception taxonomy.

Every failure the library can diagnose raises a subclass of JetLawError,
so callers (in particular the command line driver) can distinguish "the
mathematical answer is no" from a genuine usage error.
"""


class JetLawError(Exception):
    """Base class for all jetlaw errors."""


class NonPolynomial(JetLawError):
    """An expression left the differential-polynomial ring (division by a
    non-constant, negative exponent, and the like)."""


class DivisionByZero(JetLawError):
    """Division of an expression by the zero constant."""


class ExprSyntaxError(JetLawError):
    """Raised by the expression parser; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExponentOverflow(JetLawError):
    """A degree in t or x or a jet exponent of a monomial would exceed
    the kernel's largest, jetlaw._kernel.impl.CAP."""


class NotNormal(JetLawError):
    """The pair (lead, rhs) is not a normal PDE in solved form."""


class _ShowsExpression(JetLawError):
    """An error whose message ends in an expression, printed by
    grammar.format_brief only when the message is read: a caller that
    translates the error into one of its own pays nothing for it."""

    prefix = ""

    def __init__(self, expr):
        super().__init__(expr)
        self.expr = expr

    def __str__(self) -> str:
        from .grammar import format_brief

        return self.prefix + format_brief(self.expr)


class NotOnSolutionSpace(_ShowsExpression):
    """An expression expected to vanish on the solution space does not;
    expr is its restriction."""

    prefix = "does not vanish on the solution space: "


class NotADivergence(_ShowsExpression):
    """The expression is not a total divergence D_t T + D_x X; expr is
    its Euler image."""

    prefix = "euler image is nonzero: "


class NotConserved(JetLawError):
    """The pair (T, X) is not a conserved current of the PDE."""


class NotAMultiplier(JetLawError):
    """The expression is not a conservation-law multiplier of the PDE."""


class NotAdjointSymmetry(JetLawError):
    """The expression is not an adjoint-symmetry of the PDE."""


class NotASymmetry(JetLawError):
    """The expression is not a symmetry characteristic of the PDE."""


class TrivialMultiplier(JetLawError):
    """The multiplier vanishes on the solution space, so the requested
    operation is not meaningful for it."""


class NotClosed(JetLawError):
    """The symmetry action does not map the given multiplier space into
    itself."""


class AnsatzError(JetLawError):
    """The ansatz violates a precondition of the solver (for instance its
    differential order is not below the order of the PDE)."""


class SessionError(JetLawError):
    """A session file could not be parsed or is missing required keys."""
