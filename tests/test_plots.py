import dataclasses
import hashlib
import math
from xml.dom import minidom

import pytest

from simca.bundle import SweepRow, save_history, save_sweep
from simca.cli import main, run_plot
from simca.plots import render_sweep_chart, render_training_chart
from simca.training import EpochRecord


def _history(epochs=400):
    return [
        EpochRecord(
            epoch=t,
            loss=100.0 * math.exp(-t / 60.0) + 5.0,
            f1_micro=1.0 - 0.6 * math.exp(-t / 40.0),
            f1_macro=1.0 - 0.7 * math.exp(-t / 40.0),
            mean_embed_dist=1.4 * math.exp(-t / 80.0) + 0.2,
            grad_norm=50.0 * math.exp(-t / 30.0),
        )
        for t in range(epochs)
    ]


def test_training_chart_has_three_panels():
    svg = render_training_chart(_history())
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 4  # background plus one frame per panel
    assert "cross-entropy" in svg
    assert "allocation F1" in svg
    assert "embedding distance" in svg
    assert svg.count("<polyline") == 4  # loss, micro, macro, distance


def test_training_chart_is_deterministic():
    assert render_training_chart(_history(50)) == render_training_chart(_history(50))


def test_training_chart_rejects_empty_history():
    with pytest.raises(ValueError):
        render_training_chart([])


def test_training_chart_skips_nan_series():
    history = [
        EpochRecord(epoch=t, loss=1.0, f1_micro=0.5, f1_macro=0.5,
                    mean_embed_dist=float("nan"), grad_norm=1.0)
        for t in range(5)
    ]
    svg = render_training_chart(history)
    assert svg.count("<polyline") == 3  # distance series has no drawable points


def test_training_chart_draws_scores_only_at_scored_epochs(tmp_path):
    # an eval_every=5 history: loss every epoch, F1 and distance at 0, 5, 10 and 11
    scored = {0, 5, 10, 11}
    history = [
        dataclasses.replace(r, **({} if r.epoch in scored else
                                  {"f1_micro": math.nan, "f1_macro": math.nan,
                                   "mean_embed_dist": math.nan}))
        for r in _history(12)
    ]
    save_history(history, tmp_path / "history.csv")
    assert main(["plot", "--results", str(tmp_path), "--out", str(tmp_path / "plots"),
                 "--quiet"]) == 0
    doc = minidom.parse(str(tmp_path / "plots" / "training.svg"))
    lines = [node.getAttribute("points").split()
             for node in doc.getElementsByTagName("polyline")]
    assert [len(points) for points in lines] == [12, 4, 4, 4]  # loss, micro, macro, distance
    # each score's points sit at the x of the scored epochs' loss points, shifted
    # by one panel width: the panels share their epoch axis
    loss_x = [float(point.split(",")[0]) for point in lines[0]]
    scored_x = [x for epoch, x in enumerate(loss_x) if epoch in scored]
    for points in lines[1:]:
        shifts = {round(float(point.split(",")[0]) - x, 2) for point, x in zip(points, scored_x)}
        assert len(shifts) == 1
    assert render_training_chart(history) == (tmp_path / "plots" / "training.svg").read_text()


def _sweep_rows():
    rows = []
    for gi, eps in enumerate((0.05, 0.1, 0.5, 1.0, 2.0)):
        for rep in range(5):
            rows.append(SweepRow(
                grid_param="epsilon", grid_value=eps, repeat=rep, seed=gi * 10 + rep,
                final_loss=10.0, final_f1_micro=0.95 - 0.05 * gi + 0.003 * rep,
                final_f1_macro=0.9, final_mean_embed_dist=0.4,
            ))
    return rows


def test_sweep_chart_log_axis_ticks():
    svg = render_sweep_chart(_sweep_rows())
    assert svg.startswith("<svg")
    for label in ("0.05", "0.1", "0.5", "2"):
        assert f">{label}<" in svg
    assert svg.count("<circle") == 25
    # on a log axis the 0.05 -> 0.1 and 1 -> 2 tick gaps are equal (both x2)
    import re

    xs = sorted(float(m) for m in re.findall(r'<line x1="([0-9.]+)" y1="236"', svg))
    assert len(xs) == 5
    low_gap = xs[1] - xs[0]
    high_gap = xs[4] - xs[3]
    assert abs(low_gap - high_gap) <= 0.05 * high_gap


def test_sweep_chart_needs_successful_rows():
    rows = [SweepRow(grid_param="epsilon", grid_value=0.1, repeat=0, seed=1,
                     error="ValueError: nope")]
    with pytest.raises(ValueError):
        render_sweep_chart(rows)


def test_sweep_chart_multiple_params():
    rows = _sweep_rows()
    rows += [
        SweepRow(grid_param="swap_rho", grid_value=rho, repeat=0, seed=7,
                 final_loss=1.0, final_f1_micro=0.9 - rho, final_f1_macro=0.8,
                 final_mean_embed_dist=0.5)
        for rho in (0.0, 0.2, 0.4)
    ]
    svg = render_sweep_chart(rows)
    assert "F1 vs epsilon" in svg
    assert "F1 vs swap_rho" in svg


def test_sweep_chart_escapes_markup_in_labels(tmp_path):
    rows = [SweepRow(grid_param="a<b&c", grid_value=v, repeat=0, seed=1, final_f1_micro=0.5 + v)
            for v in (0.1, 0.2)]
    save_sweep(rows, tmp_path / "sweep.csv")
    [svg] = run_plot(tmp_path, tmp_path / "plots", quiet=True)
    texts = [node.firstChild.data for node in minidom.parse(str(svg)).getElementsByTagName("text")]
    assert "F1 vs a<b&c" in texts and "a<b&c" in texts


def _flat_history():
    """A constant loss, F1 with NaN gaps and an all-NaN distance series."""
    return [
        EpochRecord(epoch=t, loss=2.5, f1_micro=math.nan if t % 3 == 1 else 0.5 + 0.1 * t,
                    f1_macro=0.4, mean_embed_dist=math.nan, grad_norm=1.0)
        for t in range(7)
    ]


def _many_grids_rows():
    """A log epsilon panel with a failed cell and an all-NaN value, a linear
    swap_rho panel with eight values, and a gauss_rho panel of three."""
    rows = _sweep_rows()
    rows.append(SweepRow(grid_param="epsilon", grid_value=0.2, repeat=0, seed=99,
                         error="ValueError: nope"))
    rows.append(SweepRow(grid_param="epsilon", grid_value=0.3, repeat=0, seed=98))
    rows += [
        SweepRow(grid_param="swap_rho", grid_value=0.05 * i, repeat=rep, seed=i * 3 + rep,
                 final_loss=1.0, final_f1_micro=0.9 - 0.04 * i - 0.01 * rep)
        for i in range(8) for rep in range(2)
    ]
    rows += [
        SweepRow(grid_param="gauss_rho", grid_value=rho, repeat=0, seed=5,
                 final_f1_micro=0.8)
        for rho in (0.0, 0.3, 0.6)
    ]
    return rows


def _linear_epsilon_rows():
    """An epsilon grid that holds 0, so its axis cannot be log-scaled."""
    return [
        SweepRow(grid_param="epsilon", grid_value=eps, repeat=0, seed=1,
                 final_f1_micro=0.7 + eps)
        for eps in (0.0, 0.1, 0.2)
    ]


CHART_DIGESTS = {
    "training-400": (lambda: render_training_chart(_history()),
        "90422b93772d4fa7aa3f8f930bb177cc8cd46aea4bab2119d0de5bfadaf2da0a"),
    "training-one-epoch": (lambda: render_training_chart(_history(1)),
        "8cc56dafd70710894769ecaf5c8b5cb5813f894eaadbfbc2d052b971fdb78317"),
    "training-nan-and-constant": (lambda: render_training_chart(_flat_history()),
        "dd805d98f2fa7dcad5f9bc6d7d7c3dd12695e78a9e883242a68b10ddd1942177"),
    "sweep-log-epsilon": (lambda: render_sweep_chart(_sweep_rows()),
        "903bfea47148b0a2802da38bffa4b773639cf7d58d0dc088ff57d8166c8bfead"),
    "sweep-many-grids": (lambda: render_sweep_chart(_many_grids_rows()),
        "d82139f3c1dacf27c4eac83eed500a7a9be0b3358a30c7d385cb66234ab44c25"),
    "sweep-linear-epsilon": (lambda: render_sweep_chart(_linear_epsilon_rows()),
        "1d8c7326edd05462b4152693899146bf9e3d5e5bbfdd7b623b26229c4dcc6976"),
}


@pytest.mark.parametrize("case", sorted(CHART_DIGESTS))
def test_chart_bytes_are_pinned(case):
    render, digest = CHART_DIGESTS[case]
    assert hashlib.sha256(render().encode()).hexdigest() == digest
