"""Exception types shared across the solver stack."""

import numpy as np


class UnsupportedSchemeError(ValueError):
    """Scheme constraints violated (e.g. sixth order on an anisotropic grid)."""


class NonFiniteInputError(ValueError):
    """An input holds NaN or infinity.

    field names the input ("rhs", "boundary", "k2", "k2_z", "k2_zz",
    "gamma" or "table") and index the node of its first non-finite value:
    (l, j, i) for the right-hand side and the boundary, (l,) for a profile
    array, () for gamma and (row level, level) for a coefficient table
    entry, the weight at level l + offset of row level l.
    """

    def __init__(self, message, field=None, index=None):
        super().__init__(message)
        self.field = field
        self.index = index


def check_finite(name, values, node=lambda idx: idx):
    """Raise NonFiniteInputError at the first non-finite entry of values.

    node maps the entry's index in values to the node index reported.
    """
    flat = values.ravel()  # complex entries are screened as float pairs, twice as fast
    if not np.isfinite(flat.view(flat.real.dtype) if flat.dtype.kind == "c" else flat).all():
        first = tuple(int(k) for k in np.argwhere(~np.isfinite(values))[0])
        at = node(first)
        raise NonFiniteInputError(
            f"{name} is not finite at node {at}: {values[first]}", field=name, index=at)


class InvalidPartitionError(ValueError):
    """Requested more parts than there are indices to distribute."""


class SingularSystemError(ArithmeticError):
    """A spectral tridiagonal system hit a vanishing pivot (near-resonance).

    Carries the 1-based sine-mode pair (n, m) of the offending system when
    raised from a batched solve; both are None for a standalone system.
    """

    def __init__(self, message, n=None, m=None):
        super().__init__(message)
        self.n = n
        self.m = m


class ExchangeError(RuntimeError):
    """Block redistribution failed; names the (sender, receiver) edge."""

    def __init__(self, message, sender=None, receiver=None):
        super().__init__(message)
        self.sender = sender
        self.receiver = receiver
