"""Package-specific error types."""


class TruncationError(RuntimeError):
    """Low-rank factorization could not reach the requested accuracy within
    its rank cap, or a state's rank is too large to expand into arrays."""


class DegenerateInterferenceError(RuntimeError):
    """The interferometer output amplitude vanished (nothing reaches the
    final beamsplitter), so a conditional coincidence rate is undefined."""
