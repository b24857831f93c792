"""Exception hierarchy shared across the package.

Two failure families matter to callers (and to the CLI exit-code map):
input documents that do not describe a legal channel/metric pair, and
legal inputs fed to a procedure whose mathematical precondition they
violate (for instance asking for a zero-rate exponent when the
zero-error capacity of the pair is positive).
"""


class ZerorateError(Exception):
    """Base class for all package errors."""


class ValidationError(ZerorateError):
    """Malformed or inconsistent input (bad document, bad codebook, bad shape)."""


class PreconditionError(ZerorateError):
    """Structurally valid input that violates a procedure's precondition."""


class InfiniteExponentError(PreconditionError):
    """Signalled when a requested exponent is infinite.

    This happens exactly when the pairwise discrimination sum diverges,
    which in turn happens only when the zero-error condition fails for
    some input pair.
    """


class BudgetExceededError(PreconditionError):
    """An exact enumeration would exceed its budget: the conditional-type
    classes of exact two-codeword decoding (the caller's budget), or a fixed
    one: the live faces of one level of the exact Q-maximization (no alphabet
    of sixteen letters or fewer reaches it), the branches of the clique search
    in one Komlos color class, or the entries of one exact joint type."""
