"""Parameter counting and auditing, independent of tensor allocation.

All counts are exact integers; the divisions by the group count must come
out even or the channel plan is invalid.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field

from .layers import BRANCHES, ConvMConfig, branch_counts, count_conv_m  # noqa: F401 (re-export)
from .network import KINDS, NetworkSpec, layer_params, propagate_shapes

# Table of golden per-layer counts for the reference network, keyed by
# 1-based layer index (layers without weights are absent).
REFERENCE_COUNTS = {
    2: 9_408,
    4: 51_712,
    6: 217_088,
    7: 268_288,
    9: 591_872,
    10: 681_984,
    12: 783_360,
    13: 826_368,
    15: 688_000,
}
REFERENCE_TOTAL = 4_118_080


@dataclass
class ReportEntry:
    layer: int  # 1-based, matching the architecture table
    kind: str
    computed: int
    reference: int | None = None

    @property
    def diff(self) -> int | None:
        return None if self.reference is None else self.computed - self.reference


@dataclass
class ParamReport:
    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(e.computed for e in self.entries)

    @property
    def passed(self) -> bool:
        return all(e.diff in (None, 0) for e in self.entries)

    @property
    def has_reference(self) -> bool:
        return any(e.reference is not None for e in self.entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["layer", "kind", "computed", "reference", "diff"])
        for e in self.entries:
            w.writerow([e.layer, e.kind, e.computed,
                        "" if e.reference is None else e.reference,
                        "" if e.diff is None else e.diff])
        w.writerow(["total", "", self.total, "", ""])
        return buf.getvalue()

    def to_table(self) -> str:
        lines = [f"{'layer':>5}  {'kind':<10} {'computed':>10} {'reference':>10} {'diff':>8}"]
        for e in self.entries:
            ref = "" if e.reference is None else f"{e.reference:,}"
            diff = "" if e.diff is None else f"{e.diff:+d}"
            lines.append(f"{e.layer:>5}  {e.kind:<10} {e.computed:>10,} {ref:>10} {diff:>8}")
        lines.append(f"{'total':>5}  {'':<10} {self.total:>10,}")
        return "\n".join(lines)


def count_network(spec: NetworkSpec) -> ParamReport:
    """Per-layer weight counts, by the count rule of each layer's ``KINDS``
    record, for every layer that carries weights. Input channels come from
    ``propagate_shapes``, so an invalid spec is a ValueError naming the
    layer."""
    shapes = propagate_shapes(spec)
    report = ParamReport()
    for i, e in enumerate(spec.layers[1:], start=1):
        count = KINDS[e.kind].count
        if count is not None:
            n = count(layer_params(e), shapes[i - 1][0])
            report.entries.append(ReportEntry(i + 1, e.kind, n))
    return report


def solve_groups(cfg: ConvMConfig, target_count: int) -> int:
    """Invert the three branch formulas: find the unique positive integer g
    with projection_count + grouped_count/g == target_count."""
    plan = [[getattr(cfg, name) for name in names] for names in BRANCHES]
    proj = cfg.n_in * sum(p for p, _, _ in plan)
    grouped = cfg.k * cfg.k * sum(p * m + m * o for p, m, o in plan)
    rem = target_count - proj
    if rem <= 0:
        raise ValueError(f"target {target_count} at or below the projection floor {proj}")
    if grouped % rem:
        raise ValueError(f"no integer group count reaches {target_count}")
    g = grouped // rem
    if any(c % g for channels in plan for c in channels):
        raise ValueError(f"derived group count {g} does not divide the channel plan")
    return g


def audit(spec: NetworkSpec, reference: dict[int, int] | None = None) -> ParamReport:
    """Count the spec and diff against golden per-layer counts (1-based layer
    index -> count). Mismatches land in the report, they do not raise."""
    report = count_network(spec)
    if reference:
        by_layer = {e.layer: e for e in report.entries}
        for layer_no, count in reference.items():
            if layer_no not in by_layer:
                raise ValueError(f"reference layer {layer_no} has no weights in the spec")
            by_layer[layer_no].reference = count
    return report
