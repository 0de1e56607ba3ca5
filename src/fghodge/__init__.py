"""Exact computation of irregular Hodge numbers for rigid connections on the
punctured line attached to simple complex Lie types, plus the Jordan-type,
exponent, minuscule-Betti and symbolic-integrability machinery around them.

Each name lives in its submodule (fghodge.grading.hodge_numbers,
fghodge.chevalley.adjoint_rep, ...); the package binds only the submodules.
"""

# bench/worker.py reads fghodge.<module> after a bare `import fghodge`
from . import character, chevalley, connection, errors, grading, kkp, linalg, rootdatum  # noqa: F401
