"""The paper-claims ledger at smoke size.

Every row checks each system's answer against ``repro.sequential`` as it
runs (the ledger raises otherwise); here each row's count ratio must
point the way the paper's claim does, and each row's counts must repeat.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "paper_claims.py"
_spec = importlib.util.spec_from_file_location("paper_claims", _PATH)
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

ROW_IDS = [row.id for row in ledger.ROWS]
# No direction asserted: GRAPE's SubIso ships more bytes than Pregel's on
# the generated graphs (a known cost; making it cheaper must not fail
# here).
UNDIRECTED = {"fig8-subiso-powerlaw", "fig8-subiso-knowledge"}


@pytest.fixture(scope="module")
def runs():
    """Two smoke runs of the ledger, each row by id."""
    return [{row["id"]: row for row in ledger.run("smoke")}
            for _ in range(2)]


def _counts(row):
    """Every count of a row, without its wall times."""
    return json.dumps({k: v for k, v in row.items() if k != "wall_s"},
                      sort_keys=True, default=lambda c: [
                          c.supersteps, c.comm_bytes, c.comm_messages,
                          c.largest_fragment])


@pytest.mark.parametrize("row_id", [i for i in ROW_IDS if i not in UNDIRECTED])
def test_grape_ahead_where_the_paper_says(runs, row_id):
    assert runs[0][row_id]["shape"] is True


@pytest.mark.parametrize("row_id", ROW_IDS)
def test_same_inputs_same_counts(runs, row_id):
    assert _counts(runs[1][row_id]) == _counts(runs[0][row_id])


def test_sssp_rows_record_their_reach(runs):
    for row in runs[0].values():
        if row["id"].startswith(("fig8-sssp", "table1")):
            assert len(row["reach"]) == row["inputs"]["queries"]
            assert all(0 < share <= 1 for share in row["reach"])


def test_locality_aware_partitions_cut_and_ship_less_on_the_road_grid(runs):
    row = runs[0]["sec6-partition"]
    for graph in row["graphs"].values():
        assert list(graph["strategies"]) == [
            "hash", "range", "grid", "streaming", "metis"]
    menu = row["graphs"]["road"]["strategies"]
    assert menu["metis"]["cut_edges"] < menu["hash"]["cut_edges"]
    assert menu["streaming"]["cut_edges"] < menu["hash"]["cut_edges"]
    assert (menu["metis"]["grape"].comm_bytes
            < menu["hash"]["grape"].comm_bytes)
    assert all(s["balanced"] for s in menu.values())


def test_check_answer_rejects_a_wrong_answer():
    truth = ledger.oracle("sssp", ledger.Inputs("smoke").graph("road"), 0)
    with pytest.raises(AssertionError, match="distances differ"):
        ledger.check_answer("sssp", {**truth, 5: truth[5] + 1}, truth)
