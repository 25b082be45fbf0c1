"""Fat-point linear systems on projective space, verified over prime fields.

Dimension counts of systems of hypersurfaces with assigned multiple base
points, speciality classification for double points, rational self-maps
attached to perfect systems with exhaustive fiber censuses, flat-limit
experiments for colliding points, and the reproduction suites binding it
all together.
"""

from ._version import __version__

__all__ = ["__version__"]
