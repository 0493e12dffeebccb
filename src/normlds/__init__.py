"""Exact toolkit for norm-form solution sequences and divisibility bases.

The package is its six modules; import the one that holds a name. Each
imports only the modules above it in this list:

- exactlinalg: exact integer linear algebra with unimodular witnesses
  (determinant, inverse, Hermite and Smith forms).
- numberfield: arithmetic in number fields of degree 2 to 4, their elements
  and module bases, and parsing and formatting.
- coordseq: the coordinate sequences of beta * eps^k, certified by their
  recurrence, and the check that one is a linear divisibility sequence.
- basisforge: the basis constructions that make the first coordinate sequence
  a linear divisibility sequence, and the Smith-form criterion.
- dkseq: the congruence sequence d_k(alpha) and its checks.
- cli: the batch command line over all of them.
"""

__version__ = "0.1.0"
