import ast
import os
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from ttone import blocks
from ttone.blocks import (BLOCK_TABLES, BlockTable, cycle_value,
                          ensure_validated, exceptional_witness)
from ttone.coloring import Coloring, verify
from ttone.graphs import gen_cycle, gen_path


def test_tables_validate():
    ensure_validated()


def test_each_block_colors_its_cycle():
    for t, table in BLOCK_TABLES.items():
        for n, seq in table.blocks.items():
            col = Coloring(t, table.k, dict(enumerate(seq)))
            assert verify(gen_cycle(n), col) == [], (t, n)


def test_glue_pairs_all_ordered():
    for t, table in BLOCK_TABLES.items():
        path = gen_path(2 * t)
        for a in table.lengths:
            for b in table.lengths:
                assert verify(path, table.glue_window(a, b)) == [], (t, a, b)


def test_shared_prefixes():
    # tables for tones 2..4 agree on at least their first t labels; the
    # tone-5 table only shares four (its source data diverges at the fifth)
    def shared_prefix(table):
        seqs = zip(*(table.blocks[n] for n in table.lengths))
        return tuple(labs[0] for labs in takewhile(
            lambda labs: len(set(labs)) == 1, seqs))

    for t in (2, 3, 4):
        assert len(shared_prefix(BLOCK_TABLES[t])) >= t
    assert len(shared_prefix(BLOCK_TABLES[5])) == 4


def test_block_lengths_match_tables():
    assert BLOCK_TABLES[2].lengths == (5, 6, 8, 9)
    assert BLOCK_TABLES[3].lengths == (6, 8, 9, 11)
    assert BLOCK_TABLES[4].lengths == (6, 8, 9, 10, 11, 13)
    assert BLOCK_TABLES[5].lengths == (8, 10, 11, 12, 13, 14, 15, 17)


def test_validate_catches_corruption():
    broken = dict(BLOCK_TABLES[3].blocks)
    seq = list(broken[6])
    seq[0] = (1, 2, 4)   # collides with the (2,3,4) label at distance 3
    broken[6] = tuple(seq)
    with pytest.raises(RuntimeError):
        BlockTable(3, 8, broken).validate()


def test_cycle_values():
    assert cycle_value(7, 2) == 6
    assert cycle_value(8, 2) == 5
    assert cycle_value(13, 3) == 9
    assert cycle_value(14, 3) == 8
    assert cycle_value(7, 4) == 13
    assert cycle_value(9, 5) == 17
    assert cycle_value(100, 5) == 16


def test_witnesses_verify_with_exact_color_counts():
    for t in (2, 3, 4, 5):
        for n in range(3, 14):
            seq = exceptional_witness(n, t)
            if seq is None:
                continue
            want = cycle_value(n, t)
            col = Coloring(t, want, dict(enumerate(seq)))
            assert verify(gen_cycle(n), col) == []
            assert len(col.colors_used()) == want


def test_derive_fixtures_reproduces_stored_tables():
    # The script rebuilds the tone-2 blocks by prefix backtracking (greedy
    # label stream) and the exceptional witnesses by exact search (reach-
    # bounded stream), so this pins the shared enumerator on both paths.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = root / "scripts" / "derive_fixtures.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True,
                         text=True, env=env, check=True).stdout
    sections = [[line.strip().rstrip(",").split(": ", 1)
                 for line in part.splitlines() if line.startswith("  ")]
                for part in out.split("\n\n")]
    emitted = [{ast.literal_eval(key): ast.literal_eval(seq) for key, seq in sec}
               for sec in sections]
    assert len(emitted) == 2
    t2, witnesses = emitted
    assert len(t2) == 4 and len(witnesses) == 16
    for n, seq in t2.items():
        assert blocks._BLOCKS_T2[n] == seq, n
    for key, seq in witnesses.items():
        assert blocks._WITNESSES[key] == seq, key
