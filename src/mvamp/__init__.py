"""mvamp: worst-case amplification of average-case matrix-vector solvers.

A solver that multiplies an n x n matrix by a vector over a prime field
correctly on only an alpha fraction of uniform inputs can be lifted to one
that is correct on every input with high probability, at an O(1/alpha^2)
overhead in solver calls. This package simulates that amplification with
explicit query accounting and ships the measurement harness around it.
"""

__version__ = "0.1.0"
