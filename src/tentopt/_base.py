"""Names the command line reads before it knows which command runs, kept
free of numpy so that the certificate commands start without it."""

# default seed of the Lagrangian starts and the ratio-constraint sampler
_SEED = 20240817


class BudgetExceededError(RuntimeError):
    """Search stopped before the tree was fully explored."""
