"""Weyl-algebra toolkit for wavefront data of the 1+1d massless scalar field.

The modules are the API (`weylnet.symplectic`, `weylnet.weyl`, `weylnet.suites`,
...); the package root exports only `load_registry`, `weyl_mul` and
`WeylnetError`.
"""

from .errors import WeylnetError
from .registry import load_registry
from .weyl import weyl_mul
