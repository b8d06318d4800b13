import os

import pytest

from cv_arbiter.errors import EmptySelection
from cv_arbiter.harness import CellResult, FrequencyTable, reproduce_case
from cv_arbiter.plots import emit_plot


def _table(rows, procedures=("poly:1", "poly:2", "spline")):
    return FrequencyTable(procedures=list(procedures), master_seed=1, rows=rows)


def _cell(case="case1", n=100, schedule="ratio:5:5", scheme="single", winners=(0, 0, 1)):
    return CellResult(
        case=case, n=n, n1=n // 2, n2=n - n // 2, schedule=schedule, scheme=scheme,
        reps=len(winners), winners=list(winners),
    )


def test_single_row_panel(tmp_path):
    written = emit_plot(_table([_cell()]), str(tmp_path))
    svg = [p for p in written if p.endswith(".svg")]
    txt = [p for p in written if p.endswith(".txt")]
    assert len(svg) == 1 and len(txt) == 1
    content = open(svg[0]).read()
    assert content.startswith("<svg") and "polyline" not in content  # one point, no line
    assert "0.0" in content and "1.0" in content  # y-axis spans [0, 1]
    sidecar = open(txt[0]).read().strip().split("\n")
    assert sidecar[0].startswith("#")
    assert sidecar[1] == "100 single 0.666667"


def test_multi_size_panel_draws_polylines(tmp_path):
    rows = [
        _cell(n=100, winners=(0, 0, 1, 1)),
        _cell(n=400, winners=(0, 0, 0, 1)),
        _cell(n=1600, winners=(0, 0, 0, 0)),
        _cell(n=100, scheme="rlt:100", winners=(0, 0, 0, 1)),
        _cell(n=400, scheme="rlt:100", winners=(0, 0, 0, 0)),
        _cell(n=1600, scheme="rlt:100", winners=(0, 0, 0, 0)),
    ]
    written = emit_plot(_table(rows), str(tmp_path))
    svg = [p for p in written if p.endswith(".svg")]
    assert len(svg) == 1
    content = open(svg[0]).read()
    assert content.count("polyline") == 2  # one per scheme


def test_best_procedure_found_by_name_in_any_order(tmp_path):
    # winners index ["poly:2", "poly:1", "spline"]: poly:1, case1's best, won 3 of 4
    table = _table([_cell(winners=(1, 0, 1, 1))], procedures=("poly:2", "poly:1", "spline"))
    written = emit_plot(table, str(tmp_path))
    sidecar = open([p for p in written if p.endswith(".txt")][0]).read().split("\n")
    assert sidecar[1] == "100 single 0.750000"


def test_case_without_its_best_procedure_is_skipped(tmp_path):
    rows = [_cell(case="case2", winners=(0, 1)), _cell(case="case1", winners=(0, 0))]
    with pytest.warns(UserWarning, match="case2.*'poly:2'"):
        written = emit_plot(_table(rows, procedures=("poly:1", "spline")), str(tmp_path))
    assert [os.path.basename(p) for p in written] == ["case1_ratio-5-5.svg", "case1_ratio-5-5.txt"]
    with pytest.warns(UserWarning), pytest.raises(EmptySelection):
        emit_plot(_table(rows[:1], procedures=("poly:1", "spline")), str(tmp_path))


def test_rejects_out_of_range_frequency(tmp_path):
    class BadCell(CellResult):
        def frequencies(self, procedures):
            return {p: 1.5 for p in procedures}

    bad = BadCell(
        case="case1", n=100, n1=50, n2=50, schedule="ratio:5:5", scheme="single",
        reps=1, winners=[0],
    )
    with pytest.raises(ValueError):
        emit_plot(_table([bad]), str(tmp_path))


def test_empty_table_raises(tmp_path):
    with pytest.raises(EmptySelection):
        emit_plot(_table([]), str(tmp_path))
    excluded = _cell()
    excluded.excluded = True
    with pytest.raises(EmptySelection):
        emit_plot(_table([excluded]), str(tmp_path))


def test_case3_desk_grid_yields_two_panels(tmp_path):
    # the case-3 grid runs only the 9:1 and 5:5 ratios
    table = reproduce_case(3, scale="desk", schemes=["single"], reps=1)
    written = emit_plot(table, str(tmp_path))
    svg = sorted(p for p in written if p.endswith(".svg"))
    assert len(svg) == 2
    assert svg[0].endswith("case3_ratio-5-5.svg")
    assert svg[1].endswith("case3_ratio-9-1.svg")
