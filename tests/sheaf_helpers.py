"""Sheaves that only the tests build: the constant sheaf over a finite
discrete G-set and the skyscraper at an exceptional isolated point."""

from profmack import linalg as la
from profmack.gsets import FiniteGSet
from profmack.sheaf import ConvergingBase, ConvSheaf, EqSheafFinite, NonPeriodicTail


def constant_sheaf_finite(base: FiniteGSet, dim: int) -> EqSheafFinite:
    G = base.group
    act = {
        (g, x): la.identity(dim) for g in G.elements() for x in range(base.size)
    }
    return EqSheafFinite(base, [dim] * base.size, act, name=f"const{dim}")


def skyscraper_isolated(base: ConvergingBase, n: int, dim: int) -> ConvSheaf:
    """Skyscraper at an exceptional isolated point x_n (n <= r)."""
    if n > base.r:
        raise NonPeriodicTail(
            "skyscrapers inside the periodic family break the period; "
            "model the point as exceptional instead"
        )
    exc = [dim if i == n - 1 else 0 for i in range(base.r)]
    return ConvSheaf(base, exc, [0] * base.m, 0, [], name=f"sky(x{n},{dim})")
