"""Empty stub: no module of the pipeline uses forward-mode jets.

The module exists only because ``perfbench/tracer.py`` imports
``closedstring.jets`` and its name ``Jet``; it goes when the tracer stops
reading them.
"""

__all__ = ["Jet"]


class Jet:
    """Placeholder type: nothing constructs one."""
