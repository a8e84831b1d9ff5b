"""Exception types raised by the labeling pipeline."""


class OtRewardError(Exception):
    """Base class for all errors raised by this package.

    Each concrete error derives from DataError, NumericError or DataIoError.
    """


class DataError(OtRewardError):
    """Input data is malformed, inconsistent or incomplete (CLI exit 3)."""


class NumericError(OtRewardError):
    """A numeric routine got input it cannot compute on (CLI exit 4)."""


class DimensionMismatch(DataError):
    """Feature vectors or matrices have incompatible dimensions."""


class MissingActions(DataError):
    """State-action features requested on a trajectory without actions."""


class TargetTooSmall(NumericError):
    """Padding target is shorter than the measure being padded."""


class MarginalMismatch(NumericError):
    """Transport marginals do not sum to one (or to each other)."""


class NegativeWeight(NumericError):
    """A marginal weight vector contains a negative entry."""


class NonFiniteCost(NumericError):
    """Cost matrix contains NaN or infinite entries."""


class NonFiniteInput(NumericError):
    """Reward vector handed to squashing contains NaN or infinite entries."""


class NonFiniteValue(DataError):
    """Dataset file contains NaN or infinite numbers."""


class TooLarge(NumericError):
    """Instance exceeds the exact LP oracle's size limit."""


class EmptyExpertSet(DataError):
    """No expert demonstrations were provided."""


class EmptyDataset(DataError):
    """Operation requires at least one episode."""


class DegenerateReturnRange(NumericError):
    """All episodic returns are equal; range rescaling is undefined."""


class ExpertRewardsMissing(DataError):
    """UDS baseline requires ground-truth rewards on expert episodes."""


class RewardsMissing(DataError):
    """An episodic return was asked of an episode without rewards."""


class IdMismatch(DataError):
    """Episode ids do not line up across the files being compared."""


class InvalidCounts(DataError):
    """Dataset generation called with invalid episode counts."""


class ParseError(DataError):
    """A dataset file record could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DataIoError(OtRewardError):
    """Reading or writing a dataset file failed at the OS level."""
