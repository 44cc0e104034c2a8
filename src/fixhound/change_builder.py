"""Context-reserved before/after pair construction and ablation-variant rendering.

A FileChange is cut into change regions: each hunk plus up to k surrounding
lines, with regions whose context windows touch or overlap merged into one.
code_before renders the regions from the pre-change file, code_after from
the post-change file, both sliced from the windows the record stores (a
region at k lies inside one window whenever k <= the record's context).
The alternative single-stream renderings used by the ablation variants
(code concatenation with and without context, raw-diff ordering) are
derived from the same regions. `build_example` renders all of them once,
and training, validation and prediction all encode `build_examples` output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .config import read_jsonl, write_jsonl
from .repo_miner import CommitRecord, FileChange, Hunk, Window

EMBED_SUBTRACT_DUO = "EmbedSubtract_Duo"
EMBED_SUBTRACT_SINGLE = "EmbedSubtract_Single"
EMBED_CONCAT_DUO = "EmbedConcat_Duo"
CODE_CONCAT = "CodeConcat"
CODE_CONCAT_NOCONTEXT = "CodeConcat_NoContext"
RAW_GIT_DIFF = "RawGitDiff"

VARIANTS = (
    EMBED_SUBTRACT_DUO,
    EMBED_SUBTRACT_SINGLE,
    EMBED_CONCAT_DUO,
    CODE_CONCAT,
    CODE_CONCAT_NOCONTEXT,
    RAW_GIT_DIFF,
)

# Variants whose model consumes two separate text streams.
DUAL_STREAM_VARIANTS = (EMBED_SUBTRACT_DUO, EMBED_SUBTRACT_SINGLE, EMBED_CONCAT_DUO)

# Single-stream variants whose two text segments are joined by one SEP token.
PAIR_VARIANTS = (CODE_CONCAT, CODE_CONCAT_NOCONTEXT)


@dataclass(frozen=True)
class Region:
    """A maximal run of hunks whose k-line context windows touch or overlap.

    Bounds are 1-based inclusive line indices into the old and new file
    versions, already clamped to the file; an empty side is lo > hi.
    """

    old_lo: int
    old_hi: int
    new_lo: int
    new_hi: int
    hunks: tuple[Hunk, ...]


def _hunk_spans(h: Hunk, k: int) -> tuple[int, int, int, int]:
    # Unclamped context-extended spans; a pure insertion/deletion yields an
    # empty core span that still grows k lines to each side.
    old_lo = h.old_start - k
    old_hi = h.old_start + len(h.removed_lines) - 1 + k
    new_lo = h.new_start - k
    new_hi = h.new_start + len(h.added_lines) - 1 + k
    return old_lo, old_hi, new_lo, new_hi


def context_regions(fc: FileChange, k: int) -> tuple[Region, ...]:
    """Group hunks into merged context regions at window size k."""
    if k < 0:
        raise ValueError("context window must be non-negative")
    regions: list[Region] = []
    cur: list[Hunk] = []
    cur_span = (0, -1, 0, -1)
    for h in fc.hunks:
        span = _hunk_spans(h, k)
        if not cur:
            cur = [h]
            cur_span = span
            continue
        touches_old = span[0] <= cur_span[1] + 1
        touches_new = span[2] <= cur_span[3] + 1
        if touches_old or touches_new:
            cur.append(h)
            cur_span = (cur_span[0], max(cur_span[1], span[1]), cur_span[2], max(cur_span[3], span[3]))
        else:
            regions.append(_clamp_region(cur, cur_span, fc))
            cur = [h]
            cur_span = span
    if cur:
        regions.append(_clamp_region(cur, cur_span, fc))
    return tuple(regions)


def _clamp_region(hunks: list[Hunk], span: tuple[int, int, int, int], fc: FileChange) -> Region:
    old_lo, old_hi, new_lo, new_hi = span
    return Region(
        old_lo=max(1, old_lo),
        old_hi=min(fc.old_len, old_hi),
        new_lo=max(1, new_lo),
        new_hi=min(fc.new_len, new_hi),
        hunks=tuple(hunks),
    )


def _window(region: Region, fc: FileChange) -> Window:
    # A region cut at k <= fc.context lies inside one stored window: the last
    # one that starts at or before it (windows start strictly in order).
    return next(w for w in reversed(fc.windows) if w.old_lo <= region.old_lo)


def region_old_lines(region: Region, fc: FileChange) -> tuple[str, ...]:
    w = _window(region, fc)
    return w.old_lines[region.old_lo - w.old_lo : region.old_hi - w.old_lo + 1]


def region_new_lines(region: Region, fc: FileChange) -> tuple[str, ...]:
    w = _window(region, fc)
    return w.new_lines[region.new_lo - w.new_lo : region.new_hi - w.new_lo + 1]


def _join_regions(line_groups: Iterable[tuple[str, ...]], k: int) -> str:
    # One blank line between regions; at k=0 the pair must collapse to the
    # bare removed/added lines, so no separator is inserted there.
    groups = [list(g) for g in line_groups]
    if k == 0:
        return "\n".join(line for g in groups for line in g)
    lines: list[str] = []
    for i, g in enumerate(groups):
        if i:
            lines.append("")
        lines.extend(g)
    return "\n".join(lines)


def removed_code(fc: FileChange) -> str:
    return "\n".join(line for h in fc.hunks for line in h.removed_lines)


def added_code(fc: FileChange) -> str:
    return "\n".join(line for h in fc.hunks for line in h.added_lines)


def raw_diff_text(regions: tuple[Region, ...], fc: FileChange, k: int) -> str:
    """Single-stream rendering in raw-diff order: context-before, added,
    removed, context-after, per merged region."""
    groups = []
    for r in regions:
        first = r.hunks[0]
        last = r.hunks[-1]
        old = region_old_lines(r, fc)
        pre = old[: first.old_start - r.old_lo]
        post = old[last.old_start + len(last.removed_lines) - r.old_lo :]
        added = tuple(line for h in r.hunks for line in h.added_lines)
        removed = tuple(line for h in r.hunks for line in h.removed_lines)
        groups.append(pre + added + removed + post)
    return _join_regions(groups, k)


@dataclass(frozen=True)
class BuiltExample:
    """One file-level training/evaluation example with every variant's text
    rendering precomputed, so built datasets are variant-agnostic."""

    repo_id: str
    commit_hash: str
    path: str
    k: int
    label: str
    removed_loc: int
    added_loc: int
    code_before: str
    code_after: str
    removed_code: str
    added_code: str
    raw_diff: str

    def variant_texts(self, variant: str) -> tuple[str, ...]:
        """The text segments `variant` encodes: two streams for the dual
        variants, the two sides of one SEP-joined sequence for the pair
        variants, one text for RawGitDiff."""
        if variant in DUAL_STREAM_VARIANTS or variant == CODE_CONCAT:
            return (self.code_before, self.code_after)
        if variant == CODE_CONCAT_NOCONTEXT:
            return (self.removed_code, self.added_code)
        if variant == RAW_GIT_DIFF:
            return (self.raw_diff,)
        raise ValueError(f"unknown variant {variant!r}")

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "BuiltExample":
        return cls(**d)


def write_examples_jsonl(examples: Iterable[BuiltExample], path: str | Path) -> int:
    return write_jsonl(examples, path)


def read_examples_jsonl(path: str | Path) -> list[BuiltExample]:
    return read_jsonl(path, BuiltExample.from_dict)


def build_example(
    fc: FileChange,
    k: int,
    label: str,
    repo_id: str = "",
    commit_hash: str = "",
) -> BuiltExample:
    """Cut the paper-style (code_before, code_after) pair at window size k
    and render every variant's text from the same regions; k may not
    exceed the context the record stores."""
    if k > fc.context:
        raise ValueError(f"{fc.path}: k={k} exceeds the {fc.context} lines of context the record stores")
    regions = context_regions(fc, k)
    return BuiltExample(
        repo_id=repo_id,
        commit_hash=commit_hash,
        path=fc.path,
        k=k,
        label=label,
        removed_loc=fc.removed_loc,
        added_loc=fc.added_loc,
        code_before=_join_regions((region_old_lines(r, fc) for r in regions), k),
        code_after=_join_regions((region_new_lines(r, fc) for r in regions), k),
        removed_code=removed_code(fc),
        added_code=added_code(fc),
        raw_diff=raw_diff_text(regions, fc, k),
    )


def build_examples(commits: Iterable[CommitRecord], k: int) -> list[BuiltExample]:
    """One example per file change of `commits`, cut at window size k, in commit then file order."""
    return [build_example(fc, k, rec.label, rec.repo_id, rec.commit_hash) for rec in commits for fc in rec.files]
