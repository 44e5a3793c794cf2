"""Probability upper bounds for events known only through the conditional
distributions they induce, smooth soft-bound surrogates, training objectives
built from them, and small reproducible experiment harnesses.

The package republishes each module's ``__all__``, so that list is the one
record of a module's public names."""

from .errors import *
from .logspace import *
from .distributions import *
from .bounds import *
from .objectives import *
from .optimize import *
from .bernoulli import *
from .nn import *

# bernoulli and nn each publish their own report_to_jsonable: neither may shadow the other.
del report_to_jsonable

__version__ = "0.1.0"
