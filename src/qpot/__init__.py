"""1D wavepacket dynamics near an absorbing surface.

The package builds an atomic wavepacket whose internal quantum potential
cancels the attractive surface potential, propagates it with a
Crank-Nicolson scheme under surface + trap + absorber, and measures how
much less of it is absorbed than a Gaussian prepared at the same spot.
"""

from .version import __version__
