"""Probabilistic digital twin of a twin-girder bridge deck.

Grillage finite elements supply the physics, a Gaussian random deck load
supplies the prior, and gauge recordings are fused in through a scaled
model plus structured-mismatch plus noise observation model. See the
README for the full loop.

The package root binds only ``__version__``: every other name is imported
from the module that defines it, e.g.
``from bridgetwin.pipeline import TwinContext``.
"""

__version__ = "0.1.0"
