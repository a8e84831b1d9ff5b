"""Exception types raised by the labeling pipeline.

A class exists only where code catches it or reads its data. Every other
fault raises its exit-code category with a message that says what failed:

- DataError (CLI exit 3): malformed, inconsistent or incomplete input, such
  as a missing expert set, episode or action, absent rewards, NaN or
  infinite numbers in a dataset file, or episode ids that do not pair up.
- NumericError (CLI exit 4): input a numeric routine cannot compute on, such
  as a non-finite cost matrix or reward vector, marginals that are negative
  or do not sum to one, a padding target shorter than the measure, or equal
  episodic returns under return-range rescaling; and results that are not
  finite, such as labels or a labeled episodic return that overflow.
- DataIoError (CLI exit 5): reading or writing a file failed at the OS level.
"""


class OtRewardError(Exception):
    """Base class for all errors raised by this package.

    Each concrete error derives from DataError, NumericError or DataIoError.
    """


class DataError(OtRewardError):
    """Input data is malformed, inconsistent or incomplete (CLI exit 3)."""


class NumericError(OtRewardError):
    """A numeric routine got input it cannot compute on (CLI exit 4)."""


class DimensionMismatch(DataError):
    """Feature vectors or matrices have incompatible dimensions.

    dataset_io catches it to report the offending line as a ParseError.
    """


class ParseError(DataError):
    """A dataset file record could not be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DataIoError(OtRewardError):
    """Reading or writing a dataset file failed at the OS level."""
