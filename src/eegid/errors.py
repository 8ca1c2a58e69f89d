"""Exception hierarchy shared across the package.

Every failure mode raised by the library derives from :class:`EegIdError`
so callers (and the CLI) can catch one base type. File failures,
undecodable bytes included, are :class:`IoFailure` naming the file, which
is also an ``OSError``, so ``except OSError`` keeps working; reading a
path that is not a file is :class:`MissingFile` (a ``FileNotFoundError``).
"""


class EegIdError(Exception):
    """Base class for all errors raised by this package."""


# ---- signal I/O ----

class MissingFile(EegIdError, FileNotFoundError):
    pass


class MalformedHeader(EegIdError):
    pass


class NonNumericSample(EegIdError):
    """A CSV body cell is not a finite number (row/col are 0-based, body-relative)."""

    def __init__(self, path, row, col, text=""):
        self.row = row
        self.col = col
        super().__init__(f"{path}: non-numeric sample at row {row}, col {col}: {text!r}")


class RaggedRows(EegIdError):
    pass


class InvalidRecording(EegIdError):
    pass


class IoFailure(EegIdError, OSError):
    pass


class EmptyDataset(EegIdError):
    pass


class InconsistentSamplingRate(EegIdError):
    pass


class InconsistentChannels(EegIdError):
    pass


class InvalidProfile(EegIdError):
    pass


class InvalidArgument(EegIdError, ValueError):
    pass


# ---- DSP ----

class FrequencyOutOfRange(EegIdError):
    pass


class UnsupportedOrder(EegIdError):
    pass


class NonFiniteOutput(EegIdError):
    pass


class TooShortForCalibration(EegIdError):
    pass


class RankDeficientCovariance(EegIdError):
    pass


class ChannelMismatch(EegIdError):
    pass


class RecordingTooShort(EegIdError):
    pass


# ---- features ----

class EmptyInput(EegIdError):
    pass


class TooFewSamples(EegIdError):
    pass


class EmptyBand(EegIdError):
    pass


# ---- reduction ----

class TooFewRows(EegIdError):
    pass


class NonFiniteInput(EegIdError):
    pass


class DimensionMismatch(EegIdError):
    pass


# ---- SVM ----

class SingleClassInput(EegIdError):
    pass


class NonConvergence(EegIdError):
    """SMO ran out of its iteration budget before satisfying the KKT conditions."""

    def __init__(self, message, kkt_violation=None):
        self.kkt_violation = kkt_violation
        super().__init__(message)


# ---- pipeline ----

class SubjectTooSmall(EegIdError):
    def __init__(self, subject_id, count, minimum):
        self.subject_id = subject_id
        self.count = count
        self.minimum = minimum
        super().__init__(
            f"subject {subject_id} has {count} windows, needs at least {minimum}"
        )


class UnknownLabel(EegIdError):
    pass


class VersionMismatch(EegIdError):
    pass


class CorruptModel(EegIdError):
    pass
