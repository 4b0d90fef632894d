import ast
import os
import random
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from ttone import blocks, coloring
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


def per_pair_validate(table: BlockTable):
    """BlockTable.validate as it was before windows were shared: one verify
    per ordered pair.  Returns the message it raised, or None."""
    try:
        for n, seq in table.blocks.items():
            bad = verify(gen_cycle(n), Coloring(table.t, table.k,
                                                dict(enumerate(seq))))
            if bad:
                raise RuntimeError(
                    f"tone-{table.t} block {n} fails on its cycle: {bad[0]}")
        path = gen_path(2 * table.t)
        for first in table.lengths:
            for second in table.lengths:
                bad = verify(path, table.glue_window(first, second))
                if bad:
                    raise RuntimeError(f"tone-{table.t} glue ({first},{second}) "
                                       f"fails: {bad[0]}")
    except RuntimeError as exc:
        return str(exc)
    return None


def validate_message(table: BlockTable):
    try:
        table.validate()
    except RuntimeError as exc:
        return str(exc)
    return None


def test_validation_verifies_each_distinct_window_once(monkeypatch):
    calls = []
    real = coloring.verify_partial

    def counted(g, col):
        calls.append(g.n)
        return real(g, col)

    monkeypatch.setattr(coloring, "verify_partial", counted)
    ensure_validated.cache_clear()
    ensure_validated()
    windows = {table.blocks[a][-t:] + table.blocks[b][:t]
               for t, table in BLOCK_TABLES.items()
               for a in table.lengths for b in table.lengths}
    pairs = sum(len(table.lengths) ** 2 for table in BLOCK_TABLES.values())
    assert (len(windows), pairs) == (46, 132)
    # 22 blocks on their cycles, 46 windows and 19 witnesses
    assert len(calls) == 22 + 46 + 19 == 87
    ensure_validated()
    assert len(calls) == 87


def test_validate_names_the_first_bad_glue_pair():
    # No one-label change of a tone-5 tail keeps its block valid on its own
    # cycle, so this bad head fails the glue check instead: block 12 still
    # colors C12, but the head glues badly after most of the 8 tails.
    broken = dict(BLOCK_TABLES[5].blocks)
    broken[12] = ((2, 3, 4, 5, 14), *broken[12][1:])
    table = BlockTable(5, 16, broken)
    assert verify(gen_cycle(12), Coloring(5, 16, dict(enumerate(broken[12])))) == []
    path = gen_path(10)
    bad_pairs = [(a, b) for a in table.lengths for b in table.lengths
                 if verify(path, table.glue_window(a, b))]
    assert len(bad_pairs) > 1
    first, second = bad_pairs[0]
    message = validate_message(table)
    assert message.startswith(f"tone-5 glue ({first},{second}) fails: ")
    assert message == per_pair_validate(table)


def test_validate_rejects_what_the_per_pair_check_rejects():
    # one label of one block replaced, at random: the same verdict and the
    # same message as a verify of every ordered pair
    rng = random.Random(17)
    rejected = 0
    for _ in range(120):
        t = rng.choice(sorted(BLOCK_TABLES))
        base = BLOCK_TABLES[t]
        n = rng.choice(base.lengths)
        seq = list(base.blocks[n])
        seq[rng.choice((0, 1, -2, -1))] = tuple(sorted(
            rng.sample(range(1, base.k + 1), t)))
        table = BlockTable(t, base.k, {**base.blocks, n: tuple(seq)})
        want = per_pair_validate(table)
        assert validate_message(table) == want
        rejected += want is not None
    assert rejected > 60


def test_cycle_values():
    assert cycle_value(7, 2) == 6
    assert cycle_value(8, 2) == 5
    assert cycle_value(13, 3) == 9
    assert cycle_value(14, 3) == 8
    assert cycle_value(7, 4) == 13
    assert cycle_value(9, 5) == 17
    assert cycle_value(100, 5) == 16


@pytest.mark.parametrize("n", [2, 0, -1])
def test_cycle_value_needs_three_vertices(n):
    with pytest.raises(ValueError, match="need n >= 3"):
        cycle_value(n, 3)


@pytest.mark.parametrize("n, t, match", [
    (5.0, 2, "need n >= 3"), (True, 2, "need n >= 3"),
    (5, 2.0, "cover tones 2..5"), (5, True, "cover tones 2..5"),
    (5, 6, "cover tones 2..5")],
    ids=["n-5.0", "n-true", "t-2.0", "t-true", "t-6"])
def test_cycle_value_refuses_a_float_bool_or_unknown_argument(n, t, match):
    # 5.0 and 2.0 used to hash as the table keys and return 5; True and 6
    # fell through to a KeyError
    with pytest.raises(ValueError, match=match):
        cycle_value(n, t)


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


def test_survey_cycles_cross_checks_the_search():
    # The survey script tabulates the constructions up to C12 and, with
    # --exact, checks them against tau for n <= 9.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = root / "scripts" / "survey_cycles.py"
    out = subprocess.run([sys.executable, str(script), "--max-n", "12",
                          "--exact"], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "MISMATCH" not in out.stdout
    assert out.stdout.count("[ok]") == 7 * 4
