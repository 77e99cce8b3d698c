"""Scalar Gaussian kernels shared by the threshold and weight formulas.

The central quantity is the truncated second moment of a standard normal,

    phi(t) = sqrt(2/pi) * integral_t^inf (x - t)^2 exp(-x^2/2) dx,   t >= 0,

which measures the expected squared shrinkage of one off-support coordinate.
Integrating by parts gives the closed form used here,

    phi(t) = (1 + t^2) * erfc(t / sqrt(2)) - t * sqrt(2/pi) * exp(-t^2 / 2),

with derivative

    phi'(t) = -2 * (sqrt(2/pi) * exp(-t^2 / 2) - t * erfc(t / sqrt(2))).

Both forms are validated against direct quadrature of the defining integral
in the test suite.  phi decreases strictly from phi(0) = 1 to 0 and is
convex; phi'(0) = -2 * sqrt(2/pi).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Past this point exp(-t^2/2) underflows and phi, phi' are zero in doubles.
_T_CAP = 50.0


def phi(t):
    """Truncated Gaussian second moment sqrt(2/pi) * int_t^inf (x-t)^2 e^{-x^2/2} dx.

    Parameters
    ----------
    t : float or array_like
        Non-negative truncation point(s).

    Returns
    -------
    float or ndarray matching the input shape.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("phi is defined for non-negative arguments")
    clipped = np.minimum(arr, _T_CAP)
    val = (1.0 + clipped * clipped) * special.erfc(clipped / math.sqrt(2.0))
    val -= clipped * SQRT_2_OVER_PI * np.exp(-0.5 * clipped * clipped)
    # the subtraction cancels to rounding noise deep in the tail; the true
    # value is positive, so clamp the noise at zero
    out = np.where(arr >= _T_CAP, 0.0, np.maximum(val, 0.0))
    return float(out) if np.ndim(t) == 0 else out


def phi_prime(t):
    """Derivative of :func:`phi`: -2 (sqrt(2/pi) e^{-t^2/2} - t erfc(t/sqrt(2)))."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("phi_prime is defined for non-negative arguments")
    clipped = np.minimum(arr, _T_CAP)
    val = -2.0 * (
        SQRT_2_OVER_PI * np.exp(-0.5 * clipped * clipped)
        - clipped * special.erfc(clipped / math.sqrt(2.0))
    )
    out = np.where(arr >= _T_CAP, 0.0, np.minimum(val, 0.0))
    return float(out) if np.ndim(t) == 0 else out
