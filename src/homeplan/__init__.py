"""Multi-robot household task allocation backed by learned spatial concepts.

Every public name is imported from the module that defines it, e.g.
``from homeplan.planner import decompose``; the package root re-exports nothing.
"""

__version__ = "0.1.0"
