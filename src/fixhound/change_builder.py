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
from typing import Iterable, NamedTuple

from .records import CommitRecord, FileChange, Region, Window, _count, _str, _verdict, context_regions

EMBED_SUBTRACT_DUO = "EmbedSubtract_Duo"
EMBED_SUBTRACT_SINGLE = "EmbedSubtract_Single"
EMBED_CONCAT_DUO = "EmbedConcat_Duo"
CODE_CONCAT = "CodeConcat"
CODE_CONCAT_NOCONTEXT = "CodeConcat_NoContext"
RAW_GIT_DIFF = "RawGitDiff"


class Variant(NamedTuple):
    """How one ablation variant renders a change and fuses its encodings."""

    fields: tuple[str, ...]  # the BuiltExample texts it encodes, in order
    fusion: str  # "Subtract" or "Concat" of two encoded streams, or "Sequence": one (two fields SEP-joined)
    own_encoders: bool  # whether the two streams have independent encoders


_CUT = ("code_before", "code_after")

# Every ablation variant, in the paper's table row order (the full model last);
# every module reads a variant's texts, fusion and encoders from here.
VARIANTS = {
    EMBED_CONCAT_DUO: Variant(_CUT, "Concat", True),
    EMBED_SUBTRACT_SINGLE: Variant(_CUT, "Subtract", False),
    CODE_CONCAT: Variant(_CUT, "Sequence", False),
    CODE_CONCAT_NOCONTEXT: Variant(("removed_code", "added_code"), "Sequence", False),
    RAW_GIT_DIFF: Variant(("raw_diff",), "Sequence", False),
    EMBED_SUBTRACT_DUO: Variant(_CUT, "Subtract", True),
}


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
        """The texts `variant` encodes: its table fields, in order."""
        return tuple(getattr(self, name) for name in VARIANTS[variant].fields)

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict) -> "BuiltExample":
        """A train.jsonl or val.jsonl line, its fields checked as a commit record's are."""
        for name in ("repo_id", "commit_hash", "path", "code_before", "code_after", "removed_code", "added_code", "raw_diff"):
            _str(d, name)
        _count(d, "k"), _count(d, "removed_loc"), _count(d, "added_loc"), _verdict(d, "label")
        return cls(**d)


def build_example(
    fc: FileChange,
    k: int,
    label: str,
    repo_id: str = "",
    commit_hash: str = "",
) -> BuiltExample:
    """Cut the paper-style (code_before, code_after) pair at window size k
    and render every variant's text from the same regions; k must not
    exceed the context the record stores (`cli._check_context`)."""
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
