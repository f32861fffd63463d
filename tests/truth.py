"""Truth-side references for the paper's proof devices.

The concentration argument needs each realized layer to be "nice": its
share of assignment chains f_i sits near its mean, and it carries enough
chains per unit of sampling weight for the next level.  The weights
themselves are capped by the degree-sum density bound.  The package
never evaluates either; these references let the tests check both on
graphs small enough to list every copy.  Copies come from
:func:`util.reference_tally` and weights from
:func:`util.brute_seg_degree`, so the copy lists and weight sums share
no code with the package's tally.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from crawlcount import (
    Graph,
    LayerState,
    Pattern,
    Segmentation,
    degeneracy,
    scaling_constant,
)

import util


def copies(g: Graph, p: Pattern, seg: Segmentation, level: int) -> list[tuple[int, ...]]:
    """Every copy of the level, sorted: with its top at ``level`` the
    reference tally visits each one and gives it chain count 1."""
    return sorted(util.reference_tally(g, p, seg, level)[1][level])


def seg_degree_total(g: Graph, p: Pattern, seg: Segmentation, level: int) -> int:
    """Sum of sampling weights over every copy of the level."""
    return sum(util.brute_seg_degree(g, verts, p.slack) for verts in copies(g, p, seg, level))


class DensityBound(NamedTuple):
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


def check_arboricity_bound(g: Graph, p: Pattern, seg: Segmentation, level: int) -> DensityBound:
    """The level's weight sum against 2m ((c+1) a)^(i-1-c) n^c.

    The bound holds with a the arboricity; the degeneracy is at least that,
    so it is a safe stand-in on the right-hand side.
    """
    if not 2 <= level <= p.size:
        raise ValueError(f"level {level} outside 2..{p.size}")
    c = p.slack
    a = degeneracy(g)
    rhs = 2 * g.edge_count * ((c + 1) * a) ** (level - 1 - c) * g.vertex_count**c
    return DensityBound(seg_degree_total(g, p, seg, level), rhs)


class Niceness(NamedTuple):
    """One realized layer: f_i against (1 -/+ eps)^i times its mean, and
    chains per unit of weight against (1-eps)^i (eps / ln n) T / W_i."""

    level: int
    f_value: int
    range_low: float
    range_high: float
    ratio_lhs: float
    ratio_rhs: float

    @property
    def nice(self) -> bool:
        in_range = self.range_low <= self.f_value <= self.range_high
        return in_range and self.ratio_lhs >= self.ratio_rhs


def niceness_report(
    g: Graph,
    p: Pattern,
    seg: Segmentation,
    layers: Sequence[LayerState],
    eps: float,
) -> list[Niceness]:
    """Judge realized layers against the reference tally's exact chain counts."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    counts, tables, _ = util.reference_tally(g, p, seg, p.size)
    t, m, walk = counts[p.size], g.edge_count, layers[0].trials
    ln_n = math.log(max(g.vertex_count, 2))
    out = []
    for pos, layer in enumerate(layers):
        i, weight = layer.level, layer.total_degree
        f = sum(tables[i].get(verts, 0) for verts in layer.members)
        if i == 2:
            factor = Fraction(walk, m)
        else:
            sizes = [lay.trials for lay in layers[1:pos]]
            degrees = [lay.total_degree for lay in layers[:pos]]
            factor = layer.trials / scaling_constant(i, m, walk, sizes, degrees)
        w_total = seg_degree_total(g, p, seg, i)
        out.append(
            Niceness(
                level=i,
                f_value=f,
                range_low=(1 - eps) ** i * float(factor) * t,
                range_high=(1 + eps) ** i * float(factor) * t,
                ratio_lhs=f / weight if weight else 0.0,
                ratio_rhs=(1 - eps) ** i * (eps / ln_n) * (t / w_total) if w_total else 0.0,
            )
        )
    return out
