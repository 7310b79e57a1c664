"""Metric tests against plain-loop references, degenerate-input conventions,
and the line-oriented report format round-trip."""

import math

import numpy as np
import pytest

from psformer.autodiff import ContractError
from psformer.metrics import (MetricsReport, adaptive_threshold,
                              average_reports, clamp_threshold, e_measure,
                              evaluate, f_measure, format_table, iou, mae,
                              parse_report, write_report)


# ------------------------------------------------------------- references

def _mae_ref(p, g):
    return math.fsum(abs(float(a) - float(b)) for a, b in zip(p, g)) / len(p)


def _fmeas_ref(p, g, thr):
    tp = fp = fn = 0
    for a, b in zip(p, g):
        pos = float(a) > thr
        if pos and b:
            tp += 1
        elif pos:
            fp += 1
        elif b:
            fn += 1
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if 0.3 * prec + rec == 0.0:
        return 0.0
    return 1.3 * prec * rec / (0.3 * prec + rec)


def _emeas_ref(p, g, thr):
    pred = [float(a) > thr for a in p]
    gt = [bool(b) for b in g]
    if all(gt) or not any(gt):
        return 1.0 if pred == gt else 0.0
    n = len(pred)
    mp = sum(pred) / n
    mg = sum(gt) / n
    total = 0.0
    for a, b in zip(pred, gt):
        hp = a - mp
        hg = b - mg
        xi = 2.0 * hp * hg / (hp * hp + hg * hg + 1e-12)
        total += (1.0 + xi) ** 2 / 4.0
    return total / n


def _iou_ref(p, g, thr):
    inter = union = 0
    for a, b in zip(p, g):
        pos = float(a) > thr
        if pos and b:
            inter += 1
        if pos or b:
            union += 1
    return inter / union if union else 1.0


def _instance(rng):
    n = int(rng.integers(1, 60))
    p = rng.uniform(0, 1, n)
    # sprinkle exact-threshold values so strictness is exercised
    hits = rng.random(n) < 0.2
    thr = float(rng.uniform(0.05, 0.95))
    p[hits] = thr
    g = rng.random(n) < rng.uniform(0.1, 0.9)
    return p, g, thr


def test_metrics_match_loop_references():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        p, g, thr = _instance(rng)
        worst = max(worst,
                    abs(mae(p, g) - _mae_ref(p, g.astype(float))),
                    abs(f_measure(p, g, thr) - _fmeas_ref(p, g, thr)),
                    abs(e_measure(p, g, thr) - _emeas_ref(p, g, thr)),
                    abs(iou(p, g, thr) - _iou_ref(p, g, thr)))
    assert worst <= 1e-10, worst


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, g, thr = _instance(rng)
        for v in (mae(p, g), f_measure(p, g, thr), e_measure(p, g, thr),
                  iou(p, g, thr)):
            assert 0.0 <= v <= 1.0


# ------------------------------------------------------------- exact cases

def test_mae_exact_values():
    assert mae([0.0, 1.0], [0, 1]) == 0.0
    assert mae([1.0, 0.0], [0, 1]) == 1.0
    assert mae([0.25], [1]) == 0.75


def test_perfect_prediction():
    g = np.array([1, 0, 1, 1, 0], dtype=bool)
    p = g.astype(float)
    assert f_measure(p, g) == 1.0
    # the epsilon guarding xi's denominator keeps this just shy of 1
    assert e_measure(p, g) == pytest.approx(1.0, abs=1e-10)
    assert iou(p, g) == 1.0
    assert mae(p, g) == 0.0


def test_binarization_is_strict():
    # p == threshold counts as negative
    g = np.array([1, 1], dtype=bool)
    p = np.array([0.5, 0.5])
    assert iou(p, g, threshold=0.5) == 0.0
    assert f_measure(p, g, threshold=0.5) == 0.0


def test_iou_empty_union_is_one():
    g = np.zeros(4, dtype=bool)
    p = np.zeros(4)
    assert iou(p, g) == 1.0


def test_iou_disjoint_is_zero():
    g = np.array([1, 1, 0, 0], dtype=bool)
    p = np.array([0.0, 0.0, 0.9, 0.9])
    assert iou(p, g) == 0.0


def test_f_measure_no_positives_anywhere():
    g = np.zeros(3, dtype=bool)
    p = np.zeros(3)
    assert f_measure(p, g) == 0.0


def test_e_measure_degenerate_ground_truth():
    # all-background or all-foreground: exact match scores 1, anything else 0
    allbg = np.zeros(5, dtype=bool)
    assert e_measure(np.zeros(5), allbg) == 1.0
    assert e_measure(np.array([0.9, 0, 0, 0, 0]), allbg) == 0.0
    allfg = np.ones(5, dtype=bool)
    assert e_measure(np.ones(5) * 0.9, allfg) == 1.0
    assert e_measure(np.array([0.9, 0.9, 0.9, 0.9, 0.1]), allfg) == 0.0


# ---------------------------------------------------------- contract edges

def test_metric_input_errors():
    with pytest.raises(ContractError):
        mae([], [])
    with pytest.raises(ContractError):
        iou([0.5], [True, False])
    with pytest.raises(ContractError):
        f_measure([0.5], [True], threshold=1.0)
    with pytest.raises(ContractError):
        e_measure([0.5], [True], threshold=0.0)


def test_adaptive_threshold():
    assert adaptive_threshold([0.1, 0.3]) == pytest.approx(0.4)
    assert adaptive_threshold([0.9, 0.9]) == 1.0  # capped
    with pytest.raises(ContractError):
        adaptive_threshold([])


def test_clamp_threshold_open_interval():
    assert clamp_threshold(0.5) == 0.5
    assert 0.0 < clamp_threshold(0.0) < 1e-8
    assert 1.0 - 1e-8 < clamp_threshold(1.0) < 1.0
    assert clamp_threshold(2.0) == clamp_threshold(1.0)


# ----------------------------------------------------------------- reports

def test_evaluate_builds_full_report():
    rng = np.random.default_rng(2)
    p = rng.uniform(0, 1, 20)
    g = rng.random(20) < 0.5
    r = evaluate(p, g, threshold=0.4, name="full")
    assert r.name == "full"
    assert r.mae == mae(p, g)
    assert r.iou == iou(p, g, 0.4)
    assert r.samples == 1


def test_average_reports_is_per_view():
    a = MetricsReport("x", 0.1, 0.8, 0.9, 0.7, 0.5, 1)
    b = MetricsReport("x", 0.3, 0.6, 0.5, 0.5, 0.5, 1)
    avg = average_reports([a, b], "mean")
    assert avg.mae == pytest.approx(0.2)
    assert avg.f_measure == pytest.approx(0.7)
    assert avg.iou == pytest.approx(0.6)
    assert avg.samples == 2
    with pytest.raises(ContractError):
        average_reports([], "none")


def test_report_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    reports = []
    for i in range(4):
        p = rng.uniform(0, 1, 15)
        g = rng.random(15) < 0.5
        reports.append(evaluate(p, g, threshold=float(rng.uniform(0.2, 0.8)),
                                name=f"v{i}"))
    path = str(tmp_path / "report.txt")
    write_report(reports, path)
    back = parse_report(path)
    assert back == reports  # %.17g preserves float64 exactly


def test_report_line_is_single_line_key_value():
    r = MetricsReport("full", 0.25, 0.5, 0.75, 1.0, 0.5, 3)
    line = r.line()
    assert "\n" not in line
    parts = dict(tok.split("=", 1) for tok in line.split())
    assert parts["name"] == "full"
    assert float(parts["iou"]) == 1.0
    assert int(parts["samples"]) == 3


def test_parse_report_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("name=x mae=0.1 not_a_token\n")
    with pytest.raises(ContractError, match="bad token"):
        parse_report(str(bad))
    bad.write_text("name=x mae=0.1 bogus=3\n")
    with pytest.raises(ContractError, match="unknown field"):
        parse_report(str(bad))
    bad.write_text("name=x mae=0.1\n")
    with pytest.raises(ContractError, match="missing"):
        parse_report(str(bad))


def test_parse_report_names_the_line_and_field_of_a_bad_value(tmp_path):
    good = MetricsReport("full", 0.25, 0.5, 0.75, 1.0, 0.5, 3).line()
    bad = tmp_path / "bad.txt"
    for field, value in (("mae", "abc"), ("samples", "1.5")):
        line = " ".join(f"{field}={value}" if tok.startswith(field + "=") else tok
                        for tok in good.split())
        bad.write_text(good + "\n" + line + "\n")
        with pytest.raises(ContractError,
                           match=f"bad.txt:2: field '{field}' has bad value '{value}'"):
            parse_report(str(bad))


def test_format_table_layout():
    a = MetricsReport("full", 0.0184, 0.99, 0.98, 0.9754, 0.5, 3)
    b = MetricsReport("no_fn", 0.05, 0.9, 0.9, 0.9, 0.5, 3)
    table = format_table([a, b])
    lines = table.splitlines()
    assert lines[0].split() == ["variant", "MAE", "F-meas", "E-meas", "IoU"]
    assert set(lines[1]) == {"-"}
    assert lines[2].startswith("full")
    assert "0.9754" in lines[2]
    assert lines[3].startswith("no_fn")
