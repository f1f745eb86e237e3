"""Max-plus timing analysis and simulation of asynchronous cellular automata.

The package splits into layers: exact max-plus arithmetic (:mod:`semiring`),
spectral theory of irreducible matrices (:mod:`spectral`), timing networks
and their dependency matrices (:mod:`network`), trajectory iteration and
periodic-regime detection (:mod:`trajectory`), synchronous and asynchronous
cellular automata (:mod:`ca`), deterministic plot and graph exports
(:mod:`render`), and a command line front end (:mod:`cli`).  Each name is
imported from its module, so importing a layer loads no layer above it.
"""

from ._version import __version__
