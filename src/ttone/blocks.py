"""Concatenable cycle-coloring blocks and stored exceptional witnesses.

Each tone t has a table of explicit colorings of short cycles that can be
laid end to end around a longer cycle.  Gluing block A after block B is safe
when the window made of A's last t labels followed by B's first t labels
verifies as a path coloring.  ensure_validated checks every ordered pair of
blocks, each distinct window once, and each block on its own cycle, on
first use (color_cycle calls it), so a transcription typo cannot ship.
Blocks for tones 3..5 are literal data; the tone-2 blocks and the
exceptional witnesses without published colorings were generated once by
the exact solver (scripts/derive_fixtures.py) and frozen here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .coloring import Coloring, verify
from .graphs import gen_cycle, gen_path

_BLOCKS_T2 = {
    5: ((1, 2), (3, 4), (1, 5), (2, 3), (4, 5)),
    6: ((1, 2), (3, 4), (1, 5), (2, 3), (1, 4), (3, 5)),
    8: ((1, 2), (3, 4), (1, 5), (2, 3), (1, 4), (2, 5), (1, 3), (4, 5)),
    9: ((1, 2), (3, 4), (1, 5), (2, 3), (1, 4), (2, 5), (1, 3), (2, 4), (3, 5)),
}

_BLOCKS_T3 = {
    6: ((1, 2, 3), (4, 5, 6), (1, 7, 8), (2, 3, 4), (1, 5, 6), (4, 7, 8)),
    8: ((1, 2, 3), (4, 5, 6), (1, 7, 8), (2, 3, 4), (5, 6, 8), (1, 2, 7),
        (3, 4, 5), (6, 7, 8)),
    9: ((1, 2, 3), (4, 5, 6), (1, 7, 8), (2, 3, 4), (5, 6, 8), (1, 4, 7),
        (2, 3, 8), (1, 5, 6), (4, 7, 8)),
    11: ((1, 2, 3), (4, 5, 6), (1, 7, 8), (2, 3, 4), (5, 6, 8), (1, 2, 7),
         (3, 4, 6), (5, 7, 8), (1, 2, 6), (3, 4, 5), (6, 7, 8)),
}

_BLOCKS_T4 = {
    6: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
        (4, 6, 7, 9), (8, 10, 11, 12)),
    8: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
        (4, 7, 8, 11), (1, 3, 6, 10), (2, 5, 8, 9), (7, 10, 11, 12)),
    9: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
        (4, 7, 8, 11), (3, 6, 9, 10), (1, 4, 5, 12), (2, 7, 8, 10),
        (6, 9, 11, 12)),
    10: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
         (4, 7, 8, 11), (6, 9, 10, 12), (1, 3, 5, 11), (2, 4, 8, 12),
         (3, 6, 7, 10), (5, 9, 11, 12)),
    11: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
         (1, 4, 6, 7), (5, 8, 9, 10), (2, 3, 7, 11), (4, 6, 8, 12),
         (1, 3, 5, 10), (2, 6, 7, 9), (8, 10, 11, 12)),
    13: ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 11), (2, 3, 5, 12),
         (4, 7, 8, 11), (6, 9, 10, 12), (1, 3, 5, 11), (2, 7, 8, 12),
         (4, 9, 10, 11), (3, 5, 6, 12), (1, 2, 8, 11), (4, 6, 7, 10),
         (5, 9, 11, 12)),
}

_BLOCKS_T5 = {
    8: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
        (2, 3, 6, 15, 16), (4, 5, 9, 10, 14), (1, 3, 7, 8, 13),
        (2, 6, 10, 11, 12), (9, 13, 14, 15, 16)),
    10: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 9, 10, 14), (7, 8, 12, 13, 16),
         (1, 5, 6, 11, 15), (2, 3, 9, 10, 16), (4, 7, 8, 11, 14),
         (6, 12, 13, 15, 16)),
    11: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 7, 8, 11), (1, 6, 9, 10, 14),
         (7, 12, 13, 15, 16), (2, 3, 5, 8, 14), (1, 4, 7, 10, 11),
         (2, 6, 9, 12, 13), (8, 11, 14, 15, 16)),
    12: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (1, 4, 5, 7, 8), (6, 9, 10, 11, 12),
         (1, 2, 3, 13, 14), (6, 7, 8, 15, 16), (1, 4, 5, 11, 12),
         (2, 3, 6, 9, 10), (1, 7, 8, 13, 14), (6, 11, 12, 15, 16)),
    13: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 9, 10, 13), (1, 7, 8, 11, 15),
         (2, 6, 10, 12, 14), (3, 4, 7, 13, 16), (5, 9, 10, 11, 15),
         (1, 2, 8, 12, 16), (4, 5, 6, 7, 14), (3, 8, 10, 11, 13),
         (9, 12, 14, 15, 16)),
    14: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 9, 10, 13), (1, 7, 8, 11, 15),
         (2, 6, 10, 12, 14), (3, 4, 7, 13, 16), (5, 9, 10, 11, 15),
         (1, 2, 8, 12, 16), (3, 5, 6, 13, 14), (1, 4, 7, 10, 15),
         (2, 8, 9, 11, 14), (6, 12, 13, 15, 16)),
    15: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 9, 10, 14), (7, 8, 12, 13, 16),
         (1, 6, 11, 14, 15), (2, 3, 9, 10, 16), (4, 5, 12, 13, 15),
         (7, 8, 11, 14, 16), (1, 6, 9, 10, 15), (2, 3, 12, 13, 16),
         (4, 5, 8, 10, 14), (1, 7, 9, 11, 13), (6, 12, 14, 15, 16)),
    17: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
         (2, 3, 6, 15, 16), (4, 5, 9, 10, 13), (1, 7, 8, 11, 15),
         (2, 6, 10, 12, 14), (3, 4, 7, 13, 16), (5, 9, 10, 11, 15),
         (1, 2, 8, 12, 16), (3, 5, 6, 13, 14), (1, 4, 7, 10, 15),
         (3, 8, 9, 11, 16), (2, 5, 12, 14, 15), (1, 3, 6, 10, 13),
         (4, 7, 9, 11, 14), (8, 12, 13, 15, 16)),
}

# Exceptional cycle lengths: explicit colorings, keyed (tone, n).  The
# 9-color tone-3 colorings of C10/C13 and the 17-color tone-5 coloring of
# C9 are published data; the rest are canonical solver witnesses.
_WITNESSES = {
    (2, 3): ((1, 2), (3, 4), (5, 6)),
    (2, 4): ((1, 2), (3, 4), (1, 6), (3, 5)),
    (2, 7): ((1, 2), (3, 4), (1, 5), (2, 3), (5, 6), (1, 4), (3, 5)),
    (3, 3): ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
    (3, 4): ((1, 2, 3), (4, 5, 6), (1, 9, 10), (4, 7, 8)),
    (3, 5): ((1, 2, 3), (4, 5, 6), (1, 7, 9), (2, 5, 10), (4, 7, 8)),
    (3, 7): ((1, 2, 3), (4, 5, 6), (1, 7, 8), (2, 4, 9), (3, 6, 7),
             (1, 5, 9), (4, 7, 8)),
    (3, 10): ((1, 2, 3), (4, 5, 6), (1, 7, 8), (3, 6, 9), (4, 5, 8),
              (2, 7, 9), (3, 6, 8), (2, 4, 5), (1, 6, 9), (5, 7, 8)),
    (3, 13): ((1, 2, 3), (4, 5, 6), (1, 7, 8), (3, 6, 9), (4, 5, 8),
              (2, 7, 9), (3, 6, 8), (4, 5, 9), (2, 7, 8), (3, 6, 9),
              (2, 4, 5), (1, 6, 8), (5, 7, 9)),
    (4, 3): ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
    (4, 4): ((1, 2, 3, 4), (5, 6, 7, 8), (1, 12, 13, 14), (5, 9, 10, 11)),
    (4, 5): ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 12, 13), (2, 6, 14, 15),
             (5, 9, 10, 11)),
    (4, 7): ((1, 2, 3, 4), (5, 6, 7, 8), (1, 9, 10, 12), (2, 3, 5, 11),
             (4, 8, 9, 13), (1, 6, 7, 12), (5, 9, 10, 11)),
    (5, 3): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (11, 12, 13, 14, 15)),
    (5, 4): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 15, 16, 17, 18),
             (6, 11, 12, 13, 14)),
    (5, 5): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 15, 16, 17),
             (2, 7, 18, 19, 20), (6, 11, 12, 13, 14)),
    (5, 6): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 15, 16),
             (3, 4, 9, 13, 18), (2, 7, 8, 15, 17), (6, 11, 12, 13, 14)),
    (5, 7): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 15, 16),
             (2, 3, 6, 13, 17), (4, 5, 9, 10, 11), (1, 7, 8, 15, 17),
             (6, 11, 12, 13, 14)),
    (5, 9): ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (1, 11, 12, 13, 14),
             (2, 3, 6, 15, 16), (4, 5, 7, 9, 12), (1, 8, 10, 11, 15),
             (2, 4, 6, 13, 14), (3, 7, 8, 12, 16), (9, 11, 13, 15, 17)),
}


class BlockTable(namedtuple("BlockTable", "t k blocks")):
    """Cycle-coloring blocks for one tone: length -> label sequence."""

    __slots__ = ()

    @property
    def lengths(self) -> tuple:
        return tuple(sorted(self.blocks))

    def glue_window(self, first: int, second: int) -> Coloring:
        """Junction window: last t labels of blocks[first], then the first t
        labels of blocks[second], as a partial coloring of a 2t-path."""
        a, b = self.blocks[first], self.blocks[second]
        window = a[-self.t:] + b[:self.t]
        return Coloring(self.t, self.k, dict(enumerate(window)))

    def validate(self) -> None:
        """Every block colors its own cycle and every ordered pair glues.

        A pair's window is its labels alone, and the blocks of a table share
        heads and tails, so each distinct window is verified once: the pairs
        are walked in order and the first bad one is named, as by a check of
        every pair."""
        for n, seq in self.blocks.items():
            col = Coloring(self.t, self.k, dict(enumerate(seq)))
            bad = verify(gen_cycle(n), col)
            if bad:
                raise RuntimeError(
                    f"tone-{self.t} block {n} fails on its cycle: {bad[0]}")
        path = gen_path(2 * self.t)
        verdicts = {}
        for first in self.lengths:
            for second in self.lengths:
                window = self.glue_window(first, second)
                key = tuple(window.labels.values())
                if key not in verdicts:
                    verdicts[key] = verify(path, window)
                bad = verdicts[key]
                if bad:
                    raise RuntimeError(
                        f"tone-{self.t} glue ({first},{second}) fails: {bad[0]}")


BLOCK_TABLES = {
    2: BlockTable(2, 5, _BLOCKS_T2),
    3: BlockTable(3, 8, _BLOCKS_T3),
    4: BlockTable(4, 12, _BLOCKS_T4),
    5: BlockTable(5, 16, _BLOCKS_T5),
}

# Expected cycle values per tone: (exceptional n -> value, general value).
CYCLE_VALUES = {
    2: ({3: 6, 4: 6, 7: 6}, 5),
    3: ({3: 9, 4: 10, 5: 10, 7: 9, 10: 9, 13: 9}, 8),
    4: ({3: 12, 4: 14, 5: 15, 7: 13}, 12),
    5: ({3: 15, 4: 18, 5: 20, 6: 18, 7: 17, 9: 17}, 16),
}


def cycle_value(n: int, t: int) -> int:
    """Expected tone chromatic number of the n-cycle, t in 2..5."""
    if type(n) is not int or n < 3:
        raise ValueError("need n >= 3")
    if type(t) is not int or t not in CYCLE_VALUES:
        raise ValueError("cycle values cover tones 2..5")
    exceptional, general = CYCLE_VALUES[t]
    return exceptional.get(n, general)


def exceptional_witness(n: int, t: int):
    """Stored coloring for an exceptional length, or None."""
    return _WITNESSES.get((t, n))


@cache
def ensure_validated() -> None:
    """Run the self-check once, on first use: blocks, glue pairs (each
    distinct window once), and witnesses.  A check that raises is not
    cached, so the next call runs it again."""
    for table in BLOCK_TABLES.values():
        table.validate()
    for (t, n), seq in _WITNESSES.items():
        want = cycle_value(n, t)
        col = Coloring(t, want, dict(enumerate(seq)))
        bad = verify(gen_cycle(n), col)
        if bad:
            raise RuntimeError(f"witness ({t},{n}) invalid: {bad[0]}")
        if len(col.colors_used()) != want:
            raise RuntimeError(
                f"witness ({t},{n}) uses {len(col.colors_used())} colors, "
                f"expected {want}")
