"""Dimensional constants shared by every module.

The sphere-volume convention is fixed so that the flat-ball subcritical
multiplier approaches the best Sobolev constant (see tests); volumes use
the log-gamma route so any dimension n >= 3 works.
"""

import math


def conformal_coupling(n: int) -> float:
    """c(n) = (n-2)/(4(n-1)), the conformal Laplacian coupling."""
    _check_dim(n)
    return (n - 2) / (4.0 * (n - 1))


def critical_exponent(n: int) -> float:
    """p = 2n/(n-2), the critical Sobolev exponent."""
    _check_dim(n)
    return 2.0 * n / (n - 2)


def sphere_volume(k: int) -> float:
    """Volume of the unit k-sphere S^k, 2 pi^{(k+1)/2} / Gamma((k+1)/2)."""
    if k < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {k}")
    half = (k + 1) / 2.0
    return 2.0 * math.exp(half * math.log(math.pi) - math.lgamma(half))


def area_weight(n: int) -> float:
    """omega_{n-1}: area of the unit (n-1)-sphere, the radial volume weight."""
    _check_dim(n)
    return sphere_volume(n - 1)


def lambda_constant(n: int) -> float:
    """Lambda(n) = n(n-2)/4 * omega_n^{2/n}, the best Sobolev constant on
    R^n."""
    _check_dim(n)
    return n * (n - 2) / 4.0 * sphere_volume(n) ** (2.0 / n)


def _check_dim(n: int) -> None:
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
