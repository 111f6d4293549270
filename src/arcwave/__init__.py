"""arcwave: spectral tools for a diagonalized arc-length water-wave model.

The package collects the pieces used in our capillary-gravity wavepacket
study: dispersion-relation utilities, the zeros of the quadratic resonance
function and the stability verdict, the bilinear interaction kernels of the
quadratic-truncated diagonalized system, normal form weights, a cubic
Schrodinger envelope solver, wavepacket assembly, and the time-stepping
loop with its error scan and diagnostics.  Checks of the paper's claims
that no production route needs (packet residual orders, nonresonance and
inflection hypotheses, the geometric transform, the three-wave interaction
ODEs) live in the test suite, beside their tests.
"""

__version__ = "0.1.0"
