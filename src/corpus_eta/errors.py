"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: bad input data or arguments are a
validation failure (exit 1), anything that breaks mid-run is a runtime
failure (exit 2).
"""


class CorpusEtaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CorpusEtaError):
    """Input data, arguments, or state violate a documented invariant."""


class CsvParseError(ValidationError):
    """A CSV file could not be parsed; the message names file and row."""


class PredictionError(ValidationError):
    """A predictor was invoked outside its domain (e.g. nothing completed)."""


class EncodeError(CorpusEtaError):
    """An external encode command failed or could not be launched."""

    def __init__(self, message: str, task_id: str = "", exit_code: int | None = None,
                 log_path=None):
        super().__init__(message)
        self.task_id = task_id
        self.exit_code = exit_code
        self.log_path = log_path
