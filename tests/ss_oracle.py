"""The paper's block-removal definition of special symmetric words.

esdlab decides membership by the depth-first walk on colored trees
(esdlab.combinatorics.is_special_symmetric) and lists the class by the same
walk. Here the definition is applied as the paper states it, block by block
from the last, so the tests can check the walk against it.
"""

from typing import Sequence

from esdlab.combinatorics import Word, partition_from_word


def consecutive_runs(block: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers in a sorted block, as (lo, hi)."""
    runs = []
    lo = prev = block[0]
    for v in block[1:]:
        if v != prev + 1:
            runs.append((lo, prev))
            lo = v
        prev = v
    runs.append((lo, prev))
    return runs


def _special_blocks(blocks: list[tuple[int, ...]]) -> bool:
    if not blocks:
        return True
    last = blocks[-1]
    runs = consecutive_runs(last)
    if any((hi - lo + 1) % 2 for lo, hi in runs):
        return False
    # Between two successive runs of the last block, every other block must
    # contribute an even number of elements.
    for (_, hi_left), (lo_right, _) in zip(runs, runs[1:]):
        for other in blocks[:-1]:
            inside = sum(1 for v in other if hi_left < v < lo_right)
            if inside % 2:
                return False
    # Strip the last block, relabel what remains by rank, recurse.
    remaining = sorted(v for block in blocks[:-1] for v in block)
    rank = {v: i + 1 for i, v in enumerate(remaining)}
    rest = [tuple(rank[v] for v in block) for block in blocks[:-1]]
    return _special_blocks(rest)


def is_special_symmetric(word: Word) -> bool:
    """Membership in SS(k) by removing blocks from the last.

    The last block must be a union of even-length intervals of consecutive
    positions, the gaps between those intervals must contain an even number
    of elements of every other block, and the word left after deleting the
    last block (relabeled to 1..k') must again pass. Odd-length words never
    qualify.
    """
    if len(word) % 2:
        return False
    return _special_blocks(list(partition_from_word(word)))
