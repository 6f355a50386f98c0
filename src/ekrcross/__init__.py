"""Exact-arithmetic workbench for cross t-intersecting family bounds."""

from .setfam import Family, Subset
from .measure import WeightParams
from .intervals import RationalInterval

__all__ = ["Family", "Subset", "WeightParams", "RationalInterval"]
__version__ = "0.1.0"
