"""Exact-arithmetic verification of the finite computations attached to
configurations of 8 points on the projective line.

Submodules:

- ``f2geom``: the 64-element quadratic space of three hyperbolic planes,
  its transvections, the orthogonal group O+(6,2) = S8 by its Coxeter
  presentation, and subspace enumerations.
- ``weil``: the two 64x64 generator matrices on the group ring, character
  multiplicities, the 15-dimensional invariant space, and the signed
  vectors attached to totally singular subspaces.
- ``qseries``: exact eta-quotient expansions, their translation and
  inversion behaviour, and the weight/divisor bookkeeping of the product
  lift.
- ``lattices``: Gram matrices, Smith normal form, discriminant forms, the
  order-4 fixed-point-free isometry with its Gaussian hermitian structure,
  reflections, glue vectors, the norm -4 correspondence, and box counts.
- ``tableaux``: pair tableaux, cross-ratio products, the dictionary onto
  totally singular subspaces, straightening, and exact relation discovery.
- ``checks`` / ``cli``: the verification suites as named claims, with the one
  runner that turns them into deterministic report lines, and the
  command-line front end.

Every exact computation runs on Python ints, and on Fractions only for
rational values (series coefficients, coordinates, traces), so none can wrap
or round; the inversion residuals of ``qseries`` are the only floats.  No
module imports numpy or dataclasses.  ``cli`` imports ``checks`` only for
``verify``, and ``cli`` and ``checks`` import every domain module where a
command or a suite first uses it, so a command loads only the modules it
runs.
"""

__version__ = "0.1.0"

# the suites ``octet verify`` runs, by name; "all" runs every one in this order
SELECTORS = ("f2", "weil", "qseries", "lattice", "tableaux", "all")
