"""Text diagram of a pebble sequence.

Each pebble prints as a bracketed run of its color letter, one letter per
leaf position it covers; free leaves print as dots.  The output is stable
and injective up to this format: sizes, order, colors and gaps are all
recoverable.

The state of the trace ``n=3``, ``I 2``, ``I 0`` (a pebble of size 4 at
0, one of size 1 at 4) renders as ``[BBBB][W]...``.  A tree taller
than ``MAX_HEIGHT`` (more than 1 Mi leaves) is refused with a
:class:`RequestError`.
"""

from __future__ import annotations

from .model import RequestError, Situation

MAX_HEIGHT = 20


def check_drawable(n: int) -> None:
    """Refuse, with :class:`RequestError`, a tree too tall to draw."""
    if n > MAX_HEIGHT:
        raise RequestError(f"height {n} is above {MAX_HEIGHT}: too many leaves to draw")


def render(s: Situation) -> str:
    check_drawable(s.n)
    parts: list[str] = []
    cursor = 0
    running_max = 0
    for pebble in s.pebbles():
        parts.append("." * (pebble.start - cursor))
        letter = "B" if running_max <= pebble.level + 1 else "W"
        parts.append("[" + letter * pebble.size + "]")
        running_max = max(running_max, pebble.level + 1)
        cursor = pebble.end
    parts.append("." * (s.leaves - cursor))
    return "".join(parts)
