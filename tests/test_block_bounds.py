"""One block partitioner: `nn._block_bounds` cuts the convolution's patch
rows, the resampler's input windows and the STFT's frames, by the one
`nn._BLOCK_BYTES`. Each loop keeps the partition it had, so the oracles
below are the inline formulas the helper replaced, copied as they were."""

from pathlib import Path

import numpy as np
import pytest

from scenecls import audio, features, nn

B = nn._BLOCK_BYTES
ROWS = [*range(60), 255, 256, 999, 1000, 4097]
ROW_BYTES = [1, 8, 9368, 40832, B - 1, B, B + 1, 3 * B]  # 9368, 40832: the STFT's V2, V1


def patch_blocks_oracle(n, row_bytes, block_bytes):
    """`_patch_blocks`: whole samples, a fixed step, x[s : s + step]."""
    step = max(1, block_bytes // row_bytes)
    return [(s, min(n, s + step)) for s in range(0, n, step)]


def resample_oracle(rows, row_bytes, block_bytes):
    """`resample`: a fixed step, the last block short; the buffer holds one step."""
    step = max(1, block_bytes // row_bytes)
    bounds = []
    for r0 in range(0, rows, step):
        r1 = min(rows, r0 + step)
        bounds.append((r0, r1))
    return bounds, min(step, rows)


def power_blocks_oracle(rows, row_bytes, block_bytes):
    """`_power_blocks`: as few blocks as fit, of equal size give or take a
    row. A row wider than a block made empty blocks, which the loop ran as
    no-ops; they are dropped here."""
    n_blocks = -(-rows * row_bytes // block_bytes)
    bounds = [rows * b // n_blocks for b in range(n_blocks + 1)]
    blocks = [(r0, r1) for r0, r1 in zip(bounds[:-1], bounds[1:]) if r0 < r1]
    return blocks, -(-rows // n_blocks)


@pytest.mark.parametrize("block_bytes", [B, 4096])
def test_both_modes_match_the_formulas_they_replaced(block_bytes, monkeypatch):
    monkeypatch.setattr(nn, "_BLOCK_BYTES", block_bytes)
    for rows in ROWS:
        for row_bytes in ROW_BYTES:
            fixed = nn._block_bounds(rows, row_bytes)
            equal = nn._block_bounds(rows, row_bytes, equal=True)
            assert fixed == patch_blocks_oracle(rows, row_bytes, block_bytes)
            assert all(r1 > r0 for r0, r1 in fixed + equal)
            if rows == 0:
                assert fixed == equal == []
                continue
            want, buffer_rows = resample_oracle(rows, row_bytes, block_bytes)
            assert fixed == want and fixed[0][1] == buffer_rows
            want, buffer_rows = power_blocks_oracle(rows, row_bytes, block_bytes)
            assert equal == want
            assert max(r1 - r0 for r0, r1 in equal) == buffer_rows


def test_blocks_cover_the_rows_in_order():
    for rows in ROWS:
        for row_bytes in ROW_BYTES:
            for equal in (False, True):
                blocks = nn._block_bounds(rows, row_bytes, equal)
                assert [r for r0, r1 in blocks for r in range(r0, r1)] == list(range(rows))
                sizes = [r1 - r0 for r0, r1 in blocks]
                if equal and sizes:
                    assert max(sizes) - min(sizes) <= 1


def test_one_block_constant():
    assert audio._BLOCK_BYTES is nn._BLOCK_BYTES
    assert not [name for name in vars(features) if "BLOCK_BYTES" in name]
    sources = [p.read_text() for p in Path(nn.__file__).parent.glob("*.py")]
    assert sum(src.count("\n_BLOCK_BYTES =") for src in sources) == 1


def test_monkeypatched_block_bytes_recuts_the_convolution(monkeypatch):
    x = np.zeros((5, 4, 4, 2))
    sample_bytes = 4 * 4 * 3 * 3 * 2 * x.itemsize
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 2 * sample_bytes)
    assert [(rows.start, rows.stop) for rows, _ in nn._patch_blocks(x, 3, 3)] == [
        (0, 32), (32, 64), (64, 80)]
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 5 * sample_bytes)
    assert [(rows.start, rows.stop) for rows, _ in nn._patch_blocks(x, 3, 3)] == [(0, 80)]
