"""Exact hyperdifferential computer algebra on the ring K[E,g,h] over F_q(T).

The top level binds only the names that ``perfbench`` reads as ``dqmf.<name>``;
everything else is imported from its module (``dqmf.verify``, ``dqmf.suite``,
...), and ``python -m dqmf`` is the one module entry of the command line.
"""

from .algebra import FieldConfig, PolyT, RatT
from .hyperd import DerivationEngine
from .qmring import QmPoly
from .tseries import evaluate, expand_E, expand_g, expand_h, hyper_derive
