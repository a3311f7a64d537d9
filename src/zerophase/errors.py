"""Exception types shared across the package."""


class ZerophaseError(Exception):
    """Base class for all package errors."""


class InputError(ZerophaseError):
    """Invalid input data or parameters (CLI exit code 2)."""


class GuardExceeded(ZerophaseError):
    """A size or enumeration guard was exceeded (CLI exit code 3)."""


class SolverError(ZerophaseError):
    """A numerical solve failed (CLI exit code 3)."""


class BranchNotFound(SolverError):
    """The requested self-consistent branch does not exist."""


class BranchTerminated(SolverError):
    """A metastable branch has no solution at the requested temperature."""
