"""The term-level arithmetic kernel.

Client modules do ``from jetlaw._kernel import impl`` and treat impl as
opaque; the implementation is the pure-Python module pure, and BACKEND
names it.
"""

from . import pure as impl

BACKEND = "pure"
