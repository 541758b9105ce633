"""Permutations of {0, ..., n-1} represented as image tuples."""

from __future__ import annotations

import re
from operator import itemgetter

from .errors import GroupParseError

Perm = tuple[int, ...]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def is_permutation(images) -> bool:
    return sorted(images) == list(range(len(images)))


def p_mul(a: Perm, b: Perm) -> Perm:
    """Compose two permutations, applying b first: (a*b)(i) = a(b(i))."""
    return tuple(a[j] for j in b)


def gather(table, idx) -> tuple:
    """tuple(table[i] for i in idx), by one itemgetter call when idx has
    two or more entries (itemgetter of one index returns the bare item)."""
    if len(idx) > 1:
        return itemgetter(*idx)(table)
    return tuple(table[i] for i in idx)


def p_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation with 1-based points, e.g. "(1 2 3)(4 5)".

    The identity is written "()". Points must lie in 1..degree and no point
    may appear twice.
    """
    text = text.strip()
    if not text:
        raise GroupParseError("empty permutation (write the identity as '()')")
    consumed = _CYCLE_RE.sub("", text).strip()
    if consumed:
        raise GroupParseError(f"unparsable permutation text {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        parts = body.split()
        if not parts:
            continue
        try:
            points = [int(s) - 1 for s in parts]
        except ValueError as exc:
            raise GroupParseError(f"bad cycle {body!r}") from exc
        for pt in points:
            if not 0 <= pt < degree:
                raise GroupParseError(
                    f"point {pt + 1} out of range for degree {degree}")
            if pt in seen:
                raise GroupParseError(f"point {pt + 1} repeated in {text!r}")
            seen.add(pt)
        for i, pt in enumerate(points):
            images[pt] = points[(i + 1) % len(points)]
    return tuple(images)


def cycle_string(p: Perm) -> str:
    """Canonical disjoint-cycle form, 1-based; the identity prints as "()"."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        nxt = p[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = p[nxt]
        cycles.append(cycle)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles)
