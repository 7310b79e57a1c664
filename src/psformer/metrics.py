"""Saliency evaluation: MAE, F-measure, E-measure, IoU, plus a line-oriented
report format.

All four metrics lie in [0,1]. Binarization is strict (p > threshold)
everywhere, matching the prediction mask convention. F-measure uses the
weighted beta^2 = 0.3 form; E-measure is the enhanced-alignment construction
over binarized maps.
"""

# No `from __future__ import annotations`: the report format reads each
# MetricsReport field's type from `dataclasses.fields`.
from dataclasses import dataclass, fields

import numpy as np

from ._files import atomic_write
from .autodiff import ContractError

F_BETA_SQ = 0.3
_XI_EPS = 1e-12


def check_threshold(threshold: float) -> None:
    """A binarization threshold must lie strictly inside (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ContractError(f"threshold must be in (0,1), got {threshold}")


def _flat_pair(probabilities, labels):
    """One view's probabilities and labels as equally long float64 vectors."""
    p = np.asarray(probabilities, dtype=np.float64).reshape(-1)
    g = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise ContractError("metrics need at least one point")
    if p.size != g.size:
        raise ContractError(f"length mismatch: {p.size} probabilities, {g.size} labels")
    return p, g


def _mask_pair(probabilities, labels, threshold: float):
    p, g = _flat_pair(probabilities, labels)
    check_threshold(threshold)
    return p > threshold, g.astype(bool)


def mae(probabilities, labels) -> float:
    p, g = _flat_pair(probabilities, labels)
    return float(np.mean(np.abs(p - g)))


def f_measure(probabilities, labels, threshold: float = 0.5) -> float:
    pred, g = _mask_pair(probabilities, labels, threshold)
    tp = float(np.count_nonzero(pred & g))
    pred_pos = float(np.count_nonzero(pred))
    gt_pos = float(np.count_nonzero(g))
    precision = tp / pred_pos if pred_pos else 0.0
    recall = tp / gt_pos if gt_pos else 0.0
    denom = F_BETA_SQ * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + F_BETA_SQ) * precision * recall / denom


def e_measure(probabilities, labels, threshold: float = 0.5) -> float:
    pred, g = _mask_pair(probabilities, labels, threshold)
    gf = g.astype(np.float64)
    pf = pred.astype(np.float64)
    if g.all() or not g.any():
        # Degenerate ground truth carries no contrast to align against.
        return 1.0 if np.array_equal(pred, g) else 0.0
    phi_p = pf - pf.mean()
    phi_g = gf - gf.mean()
    xi = 2.0 * phi_p * phi_g / (phi_p * phi_p + phi_g * phi_g + _XI_EPS)
    return float(np.mean((1.0 + xi) ** 2 / 4.0))


def iou(probabilities, labels, threshold: float = 0.5) -> float:
    pred, g = _mask_pair(probabilities, labels, threshold)
    union = float(np.count_nonzero(pred | g))
    if union == 0.0:
        return 1.0
    return float(np.count_nonzero(pred & g)) / union


def adaptive_threshold(probabilities) -> float:
    """Twice the mean probability, capped at 1."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0:
        raise ContractError("adaptive_threshold needs at least one point")
    return min(1.0, 2.0 * float(p.mean()))


def clamp_threshold(threshold: float) -> float:
    """Squeeze a threshold into the open interval the metrics require."""
    return min(max(threshold, 1e-9), 1.0 - 1e-9)


@dataclass
class MetricsReport:
    name: str
    mae: float
    f_measure: float
    e_measure: float
    iou: float
    threshold: float
    samples: int

    def line(self) -> str:
        """`field=value` per field in declaration order; floats round-trip."""
        return " ".join(
            f"{f.name}={format(getattr(self, f.name), '.17g' if f.type is float else '')}"
            for f in fields(self))


def evaluate(probabilities, labels, threshold: float = 0.5,
             name: str = "eval") -> MetricsReport:
    """All four metrics on one view."""
    return MetricsReport(
        name=name,
        mae=mae(probabilities, labels),
        f_measure=f_measure(probabilities, labels, threshold),
        e_measure=e_measure(probabilities, labels, threshold),
        iou=iou(probabilities, labels, threshold),
        threshold=threshold,
        samples=1,
    )


def average_reports(reports, name: str) -> MetricsReport:
    """Per-view averaging: each view's metrics weigh equally."""
    if not reports:
        raise ContractError("average_reports needs at least one report")
    n = len(reports)
    return MetricsReport(
        name=name,
        mae=sum(r.mae for r in reports) / n,
        f_measure=sum(r.f_measure for r in reports) / n,
        e_measure=sum(r.e_measure for r in reports) / n,
        iou=sum(r.iou for r in reports) / n,
        threshold=reports[0].threshold,
        samples=sum(r.samples for r in reports),
    )


def format_table(reports) -> str:
    header = f"{'variant':<14s} {'MAE':>8s} {'F-meas':>8s} {'E-meas':>8s} {'IoU':>8s}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(f"{r.name:<14s} {r.mae:>8.4f} {r.f_measure:>8.4f} "
                     f"{r.e_measure:>8.4f} {r.iou:>8.4f}")
    return "\n".join(lines)


def write_report(reports, path: str) -> None:
    """One record per line; atomic replace so readers never see a torn file."""
    text = "".join(r.line() + "\n" for r in reports)
    with atomic_write(path, ".report-") as fh:
        fh.write(text.encode("utf-8"))


def parse_report(path: str):
    field_types = {f.name: f.type for f in fields(MetricsReport)}
    reports = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = {}
            for token in line.split():
                if "=" not in token:
                    raise ContractError(f"{path}:{lineno}: bad token {token!r}")
                key, val = token.split("=", 1)
                if key not in field_types:
                    raise ContractError(f"{path}:{lineno}: unknown field {key!r}")
                try:
                    rec[key] = field_types[key](val)
                except ValueError:
                    raise ContractError(
                        f"{path}:{lineno}: field {key!r} has bad value {val!r}") from None
            missing = set(field_types) - set(rec)
            if missing:
                raise ContractError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            reports.append(MetricsReport(**rec))
    return reports
