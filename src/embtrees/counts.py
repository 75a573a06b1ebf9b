"""Work counts, always on.

``COUNTS`` maps an event to the number of times it has happened in this
process: products in each ring and root solves.  The counted functions
add to it in place.  ``run_check`` reports the difference over one check
in its result, so the counts of a check that ran in another process
still come back.
"""

from __future__ import annotations

COUNTS: dict[str, int] = dict.fromkeys((
    "series.mul",                # Series x Series; not the coordinate products of
                                 # splitting.mul, which run on the integers
    "multipoly.mul",             # MultiPoly x MultiPoly
    "splitting.mul",             # SAElement x SAElement
    "kernel.tree_root",          # tree_root calls
    "kernel.newton",             # newton_solve calls
    "kernel.hensel",             # hensel_factor_pair calls
    "levels.label_spectra",      # label_spectra calls
), 0)


def since(before: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """(event, count) pairs for what happened after ``before = dict(COUNTS)``."""
    return tuple((name, n - before[name]) for name, n in COUNTS.items())
