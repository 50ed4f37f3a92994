"""Generalized Ricci flow on quadratic Lie algebras and flat tori.

Each module states its own names; import the module, as in ``from grflow import exact_torus as et``.
"""

__version__ = "0.1.0"
