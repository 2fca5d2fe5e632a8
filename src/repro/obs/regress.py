"""Two-tier regression checker over run records.

The paper's claims are *traffic-shape* claims, and the simulator is
deterministic, so the gate has two tiers with different semantics:

* **exact tier** — deterministic traffic counters
  (:data:`repro.obs.baseline.DETERMINISTIC_KEYS` plus the per-link byte
  matrix and the config hash) must match the baseline **bit-exact**.
  Any drift means simulator semantics changed: either a bug, or an
  intentional change that must re-record its baselines.
* **band tier** — the perf model's total time, gated two-sided within
  :data:`MODELLED_EPSILON`.  It is a pure function of the counters, so
  it should move only when the pricing model does.

Neither tier reads a clock, so the gate cannot flake.  Host time is
measured by perfbench alone; older committed records may still carry
``perf.wall_s``/``perf.accesses_per_s``, and the gate ignores them.

``compare_records`` never raises on metric drift — it returns a
:class:`RegressionReport` whose :meth:`~RegressionReport.render` is a
readable diff naming every offending metric; the CLI turns ``ok`` into
the exit status.  See ``docs/regression.md`` for gate semantics and the
baseline workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.baseline import (
    DETERMINISTIC_KEYS,
    SCHEMA_VERSION,
    validate_record,
)

#: Finding tiers.
TIER_EXACT = "exact"
TIER_BAND = "band"


#: Relative tolerance of the two-sided modelled-time band.
MODELLED_EPSILON = 1e-6


@dataclass
class Finding:
    """One gated quantity: its tier, both values, and the verdict."""

    metric: str
    tier: str  # TIER_EXACT | TIER_BAND
    baseline: object
    current: object
    ok: bool
    note: str = ""

    @property
    def rel_delta(self) -> Optional[float]:
        """(current - baseline) / baseline where that makes sense."""
        try:
            base = float(self.baseline)  # type: ignore[arg-type]
            cur = float(self.current)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return None
        if base == 0:
            return None
        return (cur - base) / base

    def delta_str(self) -> str:
        rel = self.rel_delta
        if rel is None:
            return "-"
        return f"{rel:+.4%}"

    def line(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        note = f"  [{self.note}]" if self.note else ""
        return (
            f"{verdict:4s} {self.tier:5s} {self.metric:24s} "
            f"baseline={self.baseline!r} current={self.current!r} "
            f"delta={self.delta_str()}{note}"
        )


@dataclass
class RegressionReport:
    """Everything ``compare_records`` determined about one point."""

    system: str
    workload: str
    findings: list[Finding] = field(default_factory=list)
    #: Non-gating observations (fingerprint drift, engine change...).
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.findings)

    def failures(self) -> list[Finding]:
        return [f for f in self.findings if not f.ok]

    def render(self) -> str:
        """Readable multi-line diff naming every gated metric."""
        head = f"{self.system}/{self.workload}: " + (
            "ok" if self.ok else f"{len(self.failures())} regression(s)"
        )
        lines = [head]
        for f in self.findings:
            if not f.ok:
                lines.append("  " + f.line())
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _exact(report: RegressionReport, metric: str, base, cur,
           note: str = "") -> None:
    report.findings.append(Finding(
        metric=metric, tier=TIER_EXACT, baseline=base, current=cur,
        ok=(base == cur), note=note,
    ))


def compare_records(baseline: dict, current: dict) -> RegressionReport:
    """Gate *current* against *baseline*; returns the full report.

    Both arguments are run records (:mod:`repro.obs.baseline`).  Schema
    problems become failing findings — a malformed or future-schema
    baseline can never silently pass.
    """
    report = RegressionReport(
        system=current.get("system", "?"),
        workload=current.get("workload", "?"),
    )

    for label, record in (("baseline", baseline), ("current", current)):
        problems = validate_record(record)
        if problems:
            report.findings.append(Finding(
                metric=f"record.{label}", tier=TIER_EXACT,
                baseline=SCHEMA_VERSION,
                current=record.get("schema_version"),
                ok=False, note="; ".join(problems),
            ))
    if not report.ok:
        return report  # cannot meaningfully diff malformed records

    # -- fingerprint -----------------------------------------------------
    base_fp = baseline.get("fingerprint", {})
    cur_fp = current.get("fingerprint", {})
    _exact(report, "fingerprint.config_hash",
           base_fp.get("config_hash"), cur_fp.get("config_hash"),
           note="records compare different configurations"
           if base_fp.get("config_hash") != cur_fp.get("config_hash")
           else "")
    if base_fp.get("code_version") != cur_fp.get("code_version"):
        report.notes.append(
            f"CODE_VERSION drift: baseline recorded at "
            f"{base_fp.get('code_version')}, current is "
            f"{cur_fp.get('code_version')} — counter changes may be "
            f"intentional; re-record the baseline if so"
        )
    if base_fp.get("engine") != cur_fp.get("engine"):
        report.notes.append(
            f"engine differs ({base_fp.get('engine')} -> "
            f"{cur_fp.get('engine')}): deterministic counters must "
            f"still match bit-exact"
        )
    if base_fp.get("git_sha") and cur_fp.get("git_sha") and \
            base_fp["git_sha"] != cur_fp["git_sha"]:
        report.notes.append(
            f"tree moved {base_fp['git_sha']} -> {cur_fp['git_sha']}"
        )

    # -- exact tier: deterministic traffic counters ----------------------
    base_det = baseline.get("deterministic", {})
    cur_det = current.get("deterministic", {})
    for key in DETERMINISTIC_KEYS:
        _exact(report, key, base_det.get(key), cur_det.get(key))
    # Any extra digest keys a newer minor revision added still gate.
    for key in sorted(set(base_det) | set(cur_det)):
        if key not in DETERMINISTIC_KEYS:
            _exact(report, key, base_det.get(key), cur_det.get(key))
    # "link.matrix" is this gate row's label (asserted by tests and
    # shown in reports), not a registry metric.
    # lint: disable=OBS001
    _exact(report, "link.matrix",
           baseline.get("link_matrix"), current.get("link_matrix"),
           note="per-link traffic shape changed"
           if baseline.get("link_matrix") != current.get("link_matrix")
           else "")

    # -- band tier: modelled time ----------------------------------------
    base_t = baseline["perf"].get("modelled_total_s")
    cur_t = current["perf"].get("modelled_total_s")
    if base_t and cur_t is not None:
        rel = abs(cur_t - base_t) / base_t
        report.findings.append(Finding(
            metric="perf.modelled_total_s", tier=TIER_BAND,
            baseline=base_t, current=cur_t,
            ok=rel <= MODELLED_EPSILON,
            note=f"two-sided band ±{MODELLED_EPSILON:g}",
        ))
    return report


def summarize_reports(reports: list[RegressionReport]) -> str:
    """One-line-per-point roll-up plus the failing diffs."""
    lines = []
    failed = [r for r in reports if not r.ok]
    for report in reports:
        lines.append(report.render())
    lines.append(
        f"{len(reports) - len(failed)}/{len(reports)} point(s) ok"
        + (f", {len(failed)} FAILED" if failed else "")
    )
    return "\n".join(lines)


__all__ = [
    "Finding",
    "MODELLED_EPSILON",
    "RegressionReport",
    "TIER_BAND",
    "TIER_EXACT",
    "compare_records",
    "summarize_reports",
]
