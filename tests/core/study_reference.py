"""Reference oracle for the study tables: every Section V table derived
from sets over a finished run's reports, independently of
:meth:`repro.core.study.StudyAggregate.fold`.

The fold in ``src/`` is the only implementation the program runs; this
is the slow, obvious one it is held to.  :func:`reference_study`
re-derives the ground-truth plans from the corpus identity with
:meth:`CorpusSpec.plan`, so nothing here reads the fold's counters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.report import AppFailure, AppReport
from repro.core.study import RowMetrics
from repro.corpus.appstore import AppStore, CorpusSpec
from repro.corpus.plans import AppPlan
from repro.policy.verbs import VerbCategory
from repro.semantics.resources import InfoType


@dataclass
class ReferenceStudy:
    """The set-based tables over kept reports and their plans."""

    n_apps: int
    reports: dict[str, AppReport] = field(default_factory=dict)
    plans: dict[str, AppPlan] = field(default_factory=dict)
    failures: dict[str, AppFailure] = field(default_factory=dict)

    # -- incomplete via description (Table III) ---------------------------

    def incomplete_desc_apps(self) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if r.incomplete_via("description")
        }

    def table3(self) -> dict[str, int]:
        """permission -> number of flagged apps."""
        counts: Counter[str] = Counter()
        for report in self.reports.values():
            for permission in {
                f.permission for f in report.incomplete_via("description")
            }:
                counts[permission] += 1
        return dict(counts)

    # -- incomplete via code (Fig. 13) --------------------------------------

    def incomplete_code_apps(self) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if r.incomplete_via("code")
        }

    def incomplete_code_confusion(self) -> tuple[int, int]:
        """(true positives, false positives) against ground truth."""
        tp = fp = 0
        for pkg in self.incomplete_code_apps():
            if self.plans[pkg].gt_incomplete_code:
                tp += 1
            else:
                fp += 1
        return tp, fp

    def fig13(self) -> tuple[Counter[InfoType], int]:
        """(missed-info distribution, retained records), TP apps only."""
        counts: Counter[InfoType] = Counter()
        retained = 0
        for pkg in self.incomplete_code_apps():
            if not self.plans[pkg].gt_incomplete_code:
                continue
            for finding in self.reports[pkg].incomplete_via("code"):
                counts[finding.info] += 1
                if finding.retained:
                    retained += 1
        return counts, retained

    # -- incorrect (Section V-D) -----------------------------------------------

    def incorrect_apps(self, source: str | None = None) -> set[str]:
        return {
            pkg for pkg, r in self.reports.items()
            if (r.incorrect if source is None else r.incorrect_via(source))
        }

    def incorrect_confusion(self) -> tuple[int, int]:
        tp = fp = 0
        for pkg in self.incorrect_apps():
            if self.plans[pkg].gt_incorrect:
                tp += 1
            else:
                fp += 1
        return tp, fp

    # -- inconsistent (Table IV) --------------------------------------------------

    def _row_membership(self, report: AppReport) -> tuple[bool, bool]:
        cur = any(
            f.category is not VerbCategory.DISCLOSE
            for f in report.inconsistent
        )
        disclose = any(
            f.category is VerbCategory.DISCLOSE
            for f in report.inconsistent
        )
        return cur, disclose

    def table4(self) -> dict[str, RowMetrics]:
        rows = {"collect_use_retain": RowMetrics(),
                "disclose": RowMetrics()}
        for pkg, report in self.reports.items():
            plan = self.plans[pkg]
            det_cur, det_d = self._row_membership(report)
            for row, detected, truth in (
                ("collect_use_retain", det_cur, plan.gt_inconsistent_cur),
                ("disclose", det_d, plan.gt_inconsistent_d),
            ):
                metrics = rows[row]
                if detected and truth:
                    metrics.tp += 1
                elif detected and not truth:
                    metrics.fp += 1
                elif not detected and truth:
                    metrics.fn += 1
        return rows

    def inconsistent_true_apps(self) -> set[str]:
        """Detected AND manually-verified inconsistent apps (the 75)."""
        out = set()
        for pkg, report in self.reports.items():
            if not report.inconsistent:
                continue
            plan = self.plans[pkg]
            det_cur, det_d = self._row_membership(report)
            if (det_cur and plan.gt_inconsistent_cur) or (
                det_d and plan.gt_inconsistent_d
            ):
                out.add(pkg)
        return out

    # -- summary (Section V-F) ---------------------------------------------------

    def summary(self) -> dict[str, int | float]:
        desc_tp = {
            pkg for pkg in self.incomplete_desc_apps()
            if self.plans[pkg].gt_incomplete_desc
        }
        code_tp = {
            pkg for pkg in self.incomplete_code_apps()
            if self.plans[pkg].gt_incomplete_code
        }
        incorrect_tp = {
            pkg for pkg in self.incorrect_apps()
            if self.plans[pkg].gt_incorrect
        }
        inconsistent_tp = self.inconsistent_true_apps()
        problem_apps = desc_tp | code_tp | incorrect_tp | inconsistent_tp
        return {
            "apps": self.n_apps,
            "problem_apps": len(problem_apps),
            "problem_fraction": len(problem_apps) / self.n_apps
            if self.n_apps else 0.0,
            "incomplete_apps": len(desc_tp | code_tp),
            "incomplete_via_description": len(desc_tp),
            "incomplete_via_code": len(code_tp),
            "incorrect_apps": len(incorrect_tp),
            "incorrect_via_description": len(
                {p for p in self.incorrect_apps("description")
                 if self.plans[p].gt_incorrect}
            ),
            "incorrect_via_code": len(
                {p for p in self.incorrect_apps("code")
                 if self.plans[p].gt_incorrect}
            ),
            "inconsistent_apps": len(inconsistent_tp),
            "quarantined_apps": len(self.failures),
        }

    def flagged(self) -> dict[str, int]:
        """The counterpart of :meth:`StudyAggregate.flagged`."""
        return {
            "incomplete_via_description": len(self.incomplete_desc_apps()),
            "incomplete_via_code": len(self.incomplete_code_apps()),
            "incorrect": len(self.incorrect_apps()),
            "incorrect_via_description":
                len(self.incorrect_apps("description")),
            "incorrect_via_code": len(self.incorrect_apps("code")),
        }

    def to_dict(self) -> dict:
        """The same document as :meth:`StudyAggregate.to_dict`."""
        dist, retained = self.fig13()
        return {
            "summary": self.summary(),
            "table3": self.table3(),
            "fig13": {
                info.value: count for info, count in dist.items()
            },
            "fig13_retained": retained,
            "table4": {
                name: {"tp": row.tp, "fp": row.fp, "fn": row.fn,
                       "precision": row.precision,
                       "recall": row.recall, "f1": row.f1}
                for name, row in self.table4().items()
            },
            "quarantine": [
                self.failures[pkg].to_dict()
                for pkg in sorted(self.failures)
            ],
        }


def reference_study(corpus: CorpusSpec | AppStore,
                    result) -> ReferenceStudy:
    """The oracle's tables for a finished run over the first apps of
    *corpus*: *result* is a :class:`repro.core.study.StudyResult`, and
    only its ``reports`` and ``failures`` are read."""
    spec = (corpus if isinstance(corpus, CorpusSpec)
            else CorpusSpec(seed=corpus.seed, n_apps=len(corpus)))
    n_apps = len(result.reports) + len(result.failures)
    plans = {}
    for index in range(n_apps):
        plan = spec.plan(index)
        plans[plan.package] = plan
    return ReferenceStudy(n_apps=n_apps, reports=dict(result.reports),
                          plans=plans, failures=dict(result.failures))
