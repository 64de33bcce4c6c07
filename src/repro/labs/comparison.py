"""Run comparison: the core Labs feature.

Section 3 of the paper stresses that comparing "different runs of a composite
BDA" is usually impossible in production platforms, and that enabling such
comparison is what makes the trial-and-error training approach work.  The
:class:`RunComparator` lines up any number of campaign runs along the
indicator dimensions that matter, computes deltas against a reference run,
names a winner per indicator (respecting each indicator's direction of
improvement), and renders the whole thing as a plain-text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.campaign import CampaignRun
from ..core.vocabulary import INDICATORS, MAXIMIZE
from ..errors import ComparisonError

#: Indicator metric keys shown when the caller does not choose any.
DEFAULT_COMPARISON_KEYS = (
    "accuracy", "precision", "recall", "f1", "r2", "rmse", "inertia", "num_rules",
    "max_lift", "achieved_k", "information_loss", "policy_violations",
    "execution_time_s", "total_task_time_s", "estimated_cost_usd",
    "records_processed",
)

#: Rows that measure the clock or price it: what a run that was served
#: reused input did *not* pay for, so cold and warm values do not compare.
_CLOCK_METRIC_KEYS = frozenset({"execution_time_s", "total_task_time_s",
                                "estimated_cost_usd"})

#: Direction of improvement per metric key (defaults to "higher is better").
_METRIC_DIRECTIONS: Dict[str, str] = {}
for _indicator in INDICATORS.values():
    _METRIC_DIRECTIONS[_indicator.metric_key] = _indicator.direction
_METRIC_DIRECTIONS.setdefault("execution_time_s", "minimize")
_METRIC_DIRECTIONS.setdefault("total_task_time_s", "minimize")
_METRIC_DIRECTIONS.setdefault("estimated_cost_usd", "minimize")
_METRIC_DIRECTIONS.setdefault("information_loss", "minimize")
_METRIC_DIRECTIONS.setdefault("policy_violations", "minimize")


@dataclass
class ComparisonRow:
    """One indicator compared across every run."""

    metric_key: str
    direction: str
    values: Dict[str, Optional[float]]
    deltas: Dict[str, Optional[float]]
    winner: Optional[str]

    def as_dict(self) -> Dict[str, object]:
        """Serialisable view of the row."""
        return {"metric": self.metric_key, "direction": self.direction,
                "values": dict(self.values), "deltas": dict(self.deltas),
                "winner": self.winner}


@dataclass
class ComparisonReport:
    """The full comparison of a set of runs."""

    run_labels: List[str]
    reference_label: str
    rows: List[ComparisonRow] = field(default_factory=list)
    option_signatures: Dict[str, Dict[str, str]] = field(default_factory=dict)
    scores: Dict[str, float] = field(default_factory=dict)
    #: Label -> partitions the run was served from an earlier trial's work
    #: (the platform's shared block store); absent labels ran cold.
    reused_blocks: Dict[str, int] = field(default_factory=dict)

    def row(self, metric_key: str) -> ComparisonRow:
        """Return the row of one metric."""
        for row in self.rows:
            if row.metric_key == metric_key:
                return row
        raise ComparisonError(f"the comparison has no row for metric {metric_key!r}")

    @property
    def metric_keys(self) -> List[str]:
        """Metric keys present in the comparison."""
        return [row.metric_key for row in self.rows]

    def winners(self) -> Dict[str, Optional[str]]:
        """Winning run label per metric."""
        return {row.metric_key: row.winner for row in self.rows}

    def overall_winner(self) -> Optional[str]:
        """The run winning the most indicator rows (ties broken by score)."""
        counts: Dict[str, int] = {label: 0 for label in self.run_labels}
        for row in self.rows:
            if row.winner is not None:
                counts[row.winner] += 1
        if not counts:
            return None
        return max(counts.items(),
                   key=lambda item: (item[1], self.scores.get(item[0], 0.0)))[0]

    def format_table(self, max_width: int = 14) -> str:
        """Render the comparison as a fixed-width text table."""
        def fmt(value: Optional[float]) -> str:
            if value is None:
                return "-"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            return f"{value:.3f}"

        header = ["indicator".ljust(22)] + [label[:max_width].ljust(max_width)
                                            for label in self.run_labels]
        lines = ["  ".join(header), "-" * len("  ".join(header))]
        for row in self.rows:
            cells = [row.metric_key.ljust(22)]
            for label in self.run_labels:
                text = fmt(row.values.get(label))
                if label == row.winner:
                    text = f"*{text}"
                if label in self.reused_blocks and \
                        row.metric_key in _CLOCK_METRIC_KEYS:
                    text = f"~{text}"
                cells.append(text.ljust(max_width))
            lines.append("  ".join(cells))
        lines.append("")
        lines.append(f"(* best value; reference run: {self.reference_label})")
        if self.reused_blocks:
            warm = ", ".join(label for label in self.run_labels
                             if label in self.reused_blocks)
            lines.append(f"(~ ran on input reused from an earlier trial — "
                         f"time and cost are not comparable with cold runs: "
                         f"{warm})")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """Serialisable view of the whole report."""
        return {"runs": list(self.run_labels),
                "reference": self.reference_label,
                "rows": [row.as_dict() for row in self.rows],
                "options": dict(self.option_signatures),
                "scores": dict(self.scores),
                "reused_blocks": dict(self.reused_blocks),
                "overall_winner": self.overall_winner()}


class RunComparator:
    """Builds :class:`ComparisonReport` objects from campaign runs."""

    def __init__(self, metric_keys: Optional[Sequence[str]] = None):
        self.metric_keys = tuple(metric_keys or DEFAULT_COMPARISON_KEYS)

    def compare(self, runs: Sequence[CampaignRun],
                labels: Optional[Sequence[str]] = None,
                reference: Optional[str] = None) -> ComparisonReport:
        """Compare runs; the first one (or ``reference``) is the baseline."""
        runs = list(runs)
        if len(runs) < 2:
            raise ComparisonError("run comparison needs at least two runs")
        labels = list(labels) if labels is not None else \
            [self._default_label(run, index) for index, run in enumerate(runs)]
        if len(labels) != len(runs):
            raise ComparisonError("labels and runs must have the same length")
        if len(set(labels)) != len(labels):
            raise ComparisonError(f"run labels must be unique, got {labels}")
        reference = reference or labels[0]
        if reference not in labels:
            raise ComparisonError(f"reference {reference!r} is not one of {labels}")

        by_label = dict(zip(labels, runs))
        rows: List[ComparisonRow] = []
        for metric_key in self.metric_keys:
            values = {label: self._value(run, metric_key)
                      for label, run in by_label.items()}
            if all(value is None for value in values.values()):
                continue
            direction = _METRIC_DIRECTIONS.get(metric_key, MAXIMIZE)
            reference_value = values.get(reference)
            deltas = {label: (None if value is None or reference_value is None
                              else value - reference_value)
                      for label, value in values.items()}
            rows.append(ComparisonRow(
                metric_key=metric_key, direction=direction, values=values,
                deltas=deltas, winner=self._winner(values, direction)))
        return ComparisonReport(
            run_labels=labels, reference_label=reference, rows=rows,
            option_signatures={label: dict(run.option_signature)
                               for label, run in by_label.items()},
            scores={label: run.weighted_score for label, run in by_label.items()},
            reused_blocks={label: run.reused_blocks
                           for label, run in by_label.items()
                           if run.reused_blocks})

    # -- helpers ------------------------------------------------------------------------

    @staticmethod
    def _default_label(run: CampaignRun, index: int) -> str:
        label = run.option_label or f"run-{index}"
        return f"{label}#{index}" if label == "default" else label

    @staticmethod
    def _value(run: CampaignRun, metric_key: str) -> Optional[float]:
        value = run.indicator_values.get(metric_key)
        return float(value) if value is not None else None

    @staticmethod
    def _winner(values: Dict[str, Optional[float]], direction: str) -> Optional[str]:
        present = {label: value for label, value in values.items() if value is not None}
        if not present:
            return None
        if direction == MAXIMIZE:
            best = max(present.values())
        else:
            best = min(present.values())
        winners = [label for label, value in present.items() if value == best]
        # a tie has no single winner
        return winners[0] if len(winners) == 1 else None
