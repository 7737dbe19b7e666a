"""Exception hierarchy.

Three families, matching the CLI exit codes:

* usage errors (exit 1): bad input the caller can fix — unknown family id,
  a prime the oracle cannot use;
* mathematical rejection (exit 2): the requested object does not exist —
  singular curve, degenerate family parameters, b not a cube;
* internal inconsistency (exit 3): a classification theorem used as an
  assembly constraint was violated, or the oracle's self-checks failed.
  These indicate a bug, never a user error.
"""


class PrymlabError(Exception):
    """Base class for all library errors."""


# -- usage errors (CLI exit 1) -------------------------------------------------

class UnknownFamily(PrymlabError):
    """Family id is not in the registry."""


class BadPrime(PrymlabError):
    """Prime unusable by the oracle: p <= 3, p | 6*disc, or above the
    enumeration cap."""


# -- mathematical rejection (CLI exit 2) ---------------------------------------

class DegenerateCurve(PrymlabError):
    """16*b*(a^2 - 4b) = 0: the quartic model is singular."""


class DegenerateParameters(PrymlabError):
    """Family parameters hit a zero denominator or a vanishing discriminant."""


class NotACube(PrymlabError):
    """b has no rational cube root, so the genus-2 model does not exist."""


class CMNotSupported(PrymlabError):
    """Operation's hypothesis requires a geometrically simple (non-CM) Prym."""


# -- internal inconsistency (CLI exit 3) ---------------------------------------

class InternalInconsistency(PrymlabError):
    """A structural constraint that provably holds was violated — a bug."""


class WeilBoundViolation(InternalInconsistency):
    """Point counts produced an L-polynomial outside the Weil bounds."""
