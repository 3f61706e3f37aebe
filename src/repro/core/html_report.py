"""HTML dashboard rendering for study results.

Turns a :class:`repro.core.study.StudyResult` into a single
self-contained HTML page -- the artifact a market operator would hand
to a review team: the summary cards, Table III, the Fig. 13
distribution as CSS bars, Table IV, and the top of the screening
worklist.  Ties sort by name, as in the CLI tables, so the page is the
same bytes for any ``PYTHONHASHSEED``.  No external assets, no
JavaScript dependencies.
"""

from __future__ import annotations

import html

from repro.core.screening import screen
from repro.core.study import StudyResult

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>PPChecker study report</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 60em; color: #1a1a1a; }}
h1 {{ font-size: 1.5em; }}
h2 {{ font-size: 1.15em; margin-top: 2em; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ text-align: left; padding: 0.3em 0.8em;
          border-bottom: 1px solid #ddd; }}
.cards {{ display: flex; gap: 1em; flex-wrap: wrap; }}
.card {{ border: 1px solid #ddd; border-radius: 6px;
         padding: 0.8em 1.2em; min-width: 9em; }}
.card .num {{ font-size: 1.6em; font-weight: 600; }}
.bar {{ background: #4a7db8; height: 0.9em; display: inline-block; }}
.muted {{ color: #777; }}
</style>
</head>
<body>
<h1>PPChecker study report</h1>
{body}
<p class="muted">Generated by the PPChecker reproduction
(DSN 2016).</p>
</body>
</html>
"""


def _esc(value: object) -> str:
    return html.escape(str(value))


def _summary_cards(result: StudyResult) -> str:
    summary = result.summary()
    cards = [
        ("apps analyzed", summary["apps"]),
        ("apps with problems",
         f"{summary['problem_apps']} "
         f"({summary['problem_fraction'] * 100:.1f}%)"),
        ("incomplete", summary["incomplete_apps"]),
        ("incorrect", summary["incorrect_apps"]),
        ("inconsistent", summary["inconsistent_apps"]),
    ]
    body = "".join(
        f'<div class="card"><div class="num">{_esc(value)}</div>'
        f'<div>{_esc(label)}</div></div>'
        for label, value in cards
    )
    return f'<div class="cards">{body}</div>'


def _table3(result: StudyResult) -> str:
    rows = "".join(
        f"<tr><td>{_esc(permission)}</td><td>{count}</td></tr>"
        for permission, count in sorted(result.table3().items(),
                                        key=lambda kv: (-kv[1], kv[0]))
    )
    return ("<h2>Permissions behind description gaps (Table III)</h2>"
            f"<table><tr><th>permission</th><th>apps</th></tr>"
            f"{rows}</table>")


def _fig13(result: StudyResult) -> str:
    dist, retained = result.fig13()
    if not dist:
        return ""
    peak = max(dist.values())
    rows = "".join(
        f"<tr><td>{_esc(info.value)}</td>"
        f'<td><span class="bar" style="width:{count * 220 // peak}px">'
        f"</span> {count}</td></tr>"
        for info, count in sorted(dist.items(),
                                  key=lambda kv: (-kv[1], kv[0].value))
    )
    return (
        "<h2>Missed information (Fig. 13)</h2>"
        f"<table><tr><th>information</th><th>records</th></tr>{rows}"
        f"</table><p>{sum(dist.values())} records, {retained} of "
        "them retained.</p>"
    )


def _table4(result: StudyResult) -> str:
    rows = "".join(
        f"<tr><td>{_esc(name)}</td><td>{m.tp}</td><td>{m.fp}</td>"
        f"<td>{m.precision:.3f}</td><td>{m.recall:.3f}</td>"
        f"<td>{m.f1:.3f}</td></tr>"
        for name, m in result.table4().items()
    )
    return ("<h2>Inconsistency detection (Table IV)</h2>"
            "<table><tr><th>sentence row</th><th>TP</th><th>FP</th>"
            "<th>precision</th><th>recall</th><th>F1</th></tr>"
            f"{rows}</table>")


def _worklist(result: StudyResult, top: int) -> str:
    ranking = screen(result.reports)
    rows = "".join(
        f"<tr><td>{rank}</td><td>{entry.score:.1f}</td>"
        f"<td>{_esc(entry.package)}</td>"
        f"<td>{_esc(', '.join(entry.kinds))}</td>"
        f"<td>{_esc(entry.headline)}</td></tr>"
        for rank, entry in enumerate(ranking.top(top), start=1)
    )
    return ("<h2>Screening worklist</h2>"
            "<table><tr><th>#</th><th>score</th><th>package</th>"
            f"<th>kinds</th><th>headline</th></tr>{rows}</table>")


def render_study_html(result: StudyResult, top: int = 15) -> str:
    """Render a study as a self-contained HTML page."""
    body = "".join([
        _summary_cards(result),
        _table3(result),
        _fig13(result),
        _table4(result),
        _worklist(result, top),
    ])
    return _PAGE.format(body=body)


def write_study_html(result: StudyResult, path: str,
                     top: int = 15) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_study_html(result, top=top))


__all__ = ["render_study_html", "write_study_html"]
