"""
spherebraid: computation in the braid groups of the sphere.

The package decides the word and torsion-order problems for the n-strand
sphere braid group exactly, by rewriting a pure word into the stabiliser of
one puncture and comparing Dynnikov coordinates.  It builds the finite
groups of the subgroup classification explicitly (coset enumeration,
subgroup lattices, automorphism groups), does arithmetic in amalgamated
products over index-2 subgroups, and enumerates the classification of
virtually cyclic subgroups with machine-checked witnesses for the algebraic
realizations.

The submodules are the API, each name importable from its own module only:
``words``, ``oracle``, ``groups``, ``amalgams``, ``classifier``, ``suites``
and ``cli``.  Importing the package imports none of them, so a caller loads
only the layers it imports and the layers those build on.
"""

__version__ = "0.1.0"
