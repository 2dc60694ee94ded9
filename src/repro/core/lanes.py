"""FastPass-Lane geometry: forward paths and returning paths.

A lane is the union of XY paths from a prime router to every router of the
target partition (its column): the prime's row segment toward the target
column plus the full target column.  A bounced packet returns YX — the
same row/column corridor in the *opposite-direction* links — so forward
lanes and returning paths can never collide as long as concurrent primes
share no row and no column (Sec. III-E, Fig. 4).  The non-overlap and
coverage lemmas are checked by ``tests/lemmas.py`` on every FastPass cell
of the conformance matrix.
"""

from __future__ import annotations

from repro.network.topology import Mesh


def forward_path(mesh: Mesh, prime: int, dst: int) -> list[tuple[int, int]]:
    """Directed links of the FastFlow forward traversal (XY routing)."""
    return mesh.xy_path(prime, dst)


def return_path(mesh: Mesh, dst: int, prime: int) -> list[tuple[int, int]]:
    """Directed links of the bounce traversal back to the prime (YX)."""
    return mesh.yx_path(dst, prime)
