"""Markdown trend reports: current vs baseline vs history, per experiment.

Built from the artifact store alone — every row is a stored run record,
resolved to its payload and flattened through the experiment's registered
metric extractor.  Where payloads carry raw timing samples
(``time_alternating`` records them per side), the report runs a
Mann-Whitney U test between the newest run and the baseline instead of
eyeballing medians, so "got slower" claims come with a significance
verdict rather than a point estimate.
"""

from __future__ import annotations

import math
from datetime import datetime, timezone

import numpy as np

from repro.bench.registry.artifacts import ArtifactError, ArtifactStore
from repro.bench.registry.core import EXPERIMENTS, METRICS


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann-Whitney U p-value (normal approximation, tie-corrected).

    Small-sample honest enough for 5-10 timing repeats; returns 1.0 when a
    side is empty or everything ties.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        return 1.0
    combined = np.concatenate([a, b])
    order = combined.argsort(kind="mergesort")
    ranks = np.empty(len(combined))
    ranks[order] = np.arange(1, len(combined) + 1)
    # Average ranks over ties.
    _, inverse, counts = np.unique(combined, return_inverse=True,
                                   return_counts=True)
    sums = np.zeros(len(counts))
    np.add.at(sums, inverse, ranks)
    ranks = sums[inverse] / counts[inverse]
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mean = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = float(((counts ** 3 - counts).sum())) / (n * (n - 1)) if n > 1 else 0.0
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    z = (u1 - mean) / math.sqrt(var)
    # Two-sided normal tail via erfc.
    return float(math.erfc(abs(z) / math.sqrt(2.0)))


def _sample_sets(payload: dict) -> dict[str, list[float]]:
    """Per-case raw timing samples, where the payload recorded them."""
    out = {}
    for case in payload.get("cases", ()):
        for side in ("kernel", "compare"):
            samples = case.get(f"{side}_samples_s")
            if samples:
                out[f"{case['case']}:{side}"] = samples
    return out


def significance_lines(current: dict, baseline: dict,
                       alpha: float = 0.05) -> list[str]:
    """Compare raw sample sets between two payloads (kernels-style)."""
    cur_sets, base_sets = _sample_sets(current), _sample_sets(baseline)
    lines = []
    for name in sorted(set(cur_sets) & set(base_sets)):
        cur, base = cur_sets[name], base_sets[name]
        p = mann_whitney_u(cur, base)
        delta = (float(np.median(cur)) / max(1e-12, float(np.median(base))) - 1.0)
        verdict = ("significant" if p < alpha else "not significant")
        lines.append(
            f"- `{name}`: median {delta:+.1%} vs baseline "
            f"(Mann-Whitney p={p:.3f}, {verdict} at α={alpha})")
    if not lines:
        lines.append("- no shared raw-sample sets between current and baseline "
                     "(pre-refactor baselines carry only summary stats)")
    return lines


def _fmt_metric(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3g}"
    if isinstance(value, (int, float)):
        return f"{value:g}"
    return str(value)


def _when(meta: dict) -> str:
    created = meta.get("created")
    if not created:
        return "-"
    return datetime.fromtimestamp(created, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M")


def _metrics_for(experiment: str, payload: dict) -> dict:
    spec = EXPERIMENTS.get(experiment)
    if spec.metrics and spec.metrics in METRICS:
        return METRICS.get(spec.metrics)(payload)
    # Generic fallback: numeric scalars from the payload's summary.
    summary = payload.get("summary", {})
    return {k: v for k, v in summary.items()
            if isinstance(v, (int, float, bool))}


def build_report(
    store: ArtifactStore,
    experiments: list[str] | None = None,
    limit: int = 10,
) -> str:
    """Render the markdown trend report over every experiment with history."""
    names = experiments or [name for name, _ in EXPERIMENTS.items()]
    lines = ["# Benchmark trends", "",
             f"Store: `{store.root}` — newest run first, baseline last."]
    for name in names:
        spec = EXPERIMENTS.get(name)
        history = store.runs(name)[-limit:]
        baseline_id = (store.get_ref(spec.baseline_ref)
                       if spec.baseline_ref else None)
        if not history and baseline_id is None:
            continue
        lines += ["", f"## {name}", "", spec.description, ""]
        rows: list[tuple[str, dict, dict]] = []
        for meta in reversed(history):
            if meta.get("imported_from"):
                continue  # imported baselines appear as the baseline row
            try:
                payload = store.get(meta["artifact"])
            except (ArtifactError, KeyError):
                continue
            label = "current" if not rows else ""
            rows.append((label, meta, payload))
        baseline_payload = None
        if baseline_id is not None and store.has(baseline_id):
            baseline_payload = store.get(baseline_id)
            base_meta = next(
                (m for m in store.runs(name)
                 if m.get("artifact") == baseline_id), {})
            rows.append(("baseline", base_meta, baseline_payload))
        if not rows:
            continue
        columns = sorted({key for _, _, payload in rows
                          for key in _metrics_for(name, payload)})
        header = ["run", "when (UTC)", "git", "scale", "seed", *columns]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for label, meta, payload in rows:
            metrics = _metrics_for(name, payload)
            artifact = meta.get("artifact", "")[:8] or "?"
            cell = label or artifact
            if label and artifact:
                cell = f"{label} ({artifact})"
            row = [
                cell, _when(meta), str(meta.get("git_sha", "?"))[:7],
                _fmt_metric(meta.get("scale")) if meta.get("scale") is not None
                else "-",
                str(meta.get("seed")) if meta.get("seed") is not None else "-",
                *(_fmt_metric(metrics.get(c, "-")) for c in columns),
            ]
            lines.append("| " + " | ".join(row) + " |")
        if baseline_payload is not None and rows and rows[0][0] == "current":
            lines += ["", "Raw-sample significance (current vs baseline):"]
            lines += significance_lines(rows[0][2], baseline_payload)
    lines.append("")
    return "\n".join(lines)
