"""numpy.linalg's LAPACK gufuncs without numpy.linalg's per-call wrappers.

np.linalg.solve and inv check their operands and enter an np.errstate on
every call, which costs more than LAPACK does on a design's small matrices.
The gufuncs they call, solve, solve1, inv and cholesky_lo (np.linalg.cholesky's
lower factor), live in the private module numpy.linalg._umath_linalg under
these names in numpy 1.x and 2.x, and give the same bits on float64 or
complex128 operands; tests/helpers.py keeps the np.linalg versions of their
callers as oracles. A gufunc does not raise: it fills the output of a
singular matrix, or for cholesky_lo one that is not positive definite, with
NaN and sets the invalid flag, which checked() turns into np.linalg's
LinAlgError. A caller of a bare gufunc enters np.errstate itself.
"""

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo, inv, solve, solve1  # noqa: F401


def checked(gufunc, *operands):
    """gufunc(*operands), raising LinAlgError where np.linalg would."""
    def fail(kind, flag):
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        return gufunc(*operands)
