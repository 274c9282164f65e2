"""Exception types shared across the laboratory."""


class EnvlabError(Exception):
    """Base class for all laboratory errors."""


class InputError(EnvlabError):
    """Malformed or inconsistent input data."""


class InfeasibleClassError(EnvlabError):
    """Requested envelope/window is empty in the given class."""


class SingularityTypeError(EnvlabError):
    """Operands do not share the required singularity type (tail slopes)."""


class DivergentIntegralError(EnvlabError):
    """A weighted norm integral diverges (boundary multiplier index)."""


class NoSectionsError(EnvlabError):
    """The admissible index set is empty where sections are required."""
