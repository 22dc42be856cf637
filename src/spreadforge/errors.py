"""Exception hierarchy shared by all spreadforge modules."""


class SpreadforgeError(Exception):
    """Base class for every error raised by this package."""


class InternalError(SpreadforgeError):
    """An invariant that can only fail through a bug was violated."""


# --- field tower -------------------------------------------------------------

class NonPrimeCharacteristic(SpreadforgeError, ValueError):
    pass


class CharacteristicTooLarge(SpreadforgeError, ValueError):
    """p exceeds the 36-symbol digit alphabet, so no code file could be written,
    or a bare FieldTower's TABLE_GUARD, so no level above F_p has tables."""


class DegreeOutOfRange(SpreadforgeError, ValueError):
    """An extension degree e, k or t is below 1."""


class FieldTooLarge(SpreadforgeError, ValueError):
    """A level would have more elements than its arithmetic tables may hold."""


class NoPrimitivePolynomialFound(InternalError):
    """The exhaustive modulus search ran dry; impossible for valid inputs."""


class LevelMismatch(SpreadforgeError, ValueError):
    """Operands live at different tower levels (or in different towers)."""


class DivisionByZero(SpreadforgeError, ZeroDivisionError):
    pass


# --- linear algebra ----------------------------------------------------------

class NonMonicModulus(SpreadforgeError, ValueError):
    pass


class AmbientMismatch(SpreadforgeError, ValueError):
    """Subspaces from different ambient spaces were combined."""


class ZeroVector(SpreadforgeError, ValueError):
    pass


class RankDeficient(SpreadforgeError, ValueError):
    pass


class SingularInput(SpreadforgeError, ValueError):
    pass


# --- construction ------------------------------------------------------------

class GcdConditionViolated(SpreadforgeError, ValueError):
    pass


class TrivialGroup(SpreadforgeError, ValueError):
    """q^kt = 2: the generators would need order q^kt - 1 = 1, so there is no group."""


class InternalOrderCheckFailed(InternalError):
    """A generator did not have the order the construction guarantees."""


class ExponentOutOfRange(SpreadforgeError, ValueError):
    pass


class GroupTooLarge(SpreadforgeError, ValueError):
    """An exhaustive enumeration was requested beyond the test-scale guard."""


class IndexOutOfRange(SpreadforgeError, ValueError):
    pass


# --- verification ------------------------------------------------------------

class CodeTooSmall(SpreadforgeError, ValueError):
    pass


class TrivialOrbit(SpreadforgeError, ValueError):
    """The whole group stabilizes the generator; the orbit is a singleton."""


class KindMismatch(SpreadforgeError, ValueError):
    """Codes whose members differ in level or ambient dimension were compared."""


# --- serialization -----------------------------------------------------------

class CodecError(SpreadforgeError, ValueError):
    pass


class MalformedHeader(CodecError):
    pass


class VersionUnsupported(CodecError):
    pass


class NonCanonicalMember(CodecError):
    pass


class DuplicateMember(CodecError):
    pass
