"""Canonical SQL dialect: grammar, parsing, rendering, normalization.

The package exports ``rewrite_dataset``; every other name is imported
from the module that defines it.
"""

from .normalize import rewrite_dataset

__all__ = ["rewrite_dataset"]
