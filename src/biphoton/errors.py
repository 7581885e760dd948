"""Package-specific error types."""


class TruncationError(RuntimeError):
    """A per-axis state's rank is above the cap (4096) for expanding its
    factors into (rank, n, n) arrays or rank x rank Grams."""


class DegenerateInterferenceError(RuntimeError):
    """The interferometer output amplitude vanished (nothing reaches the
    final beamsplitter), so a conditional coincidence rate is undefined."""
