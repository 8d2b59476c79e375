"""Desk-scale laboratory for homomorphic evaluation on states encoded under
secret CSS codes: a symmetric scheme keyed by the code itself and a
public-key scheme keyed by a scrambled generator matrix with deliberate
Pauli errors, both running on an exact state-vector simulator."""

__version__ = "0.1.0"
