"""The suite driver: witness deduplication and order."""

from hilb.report import run_suite


def test_run_suite_passes_without_witnesses():
    report = run_suite("demo", {"mode": "exhaustive"}, [None, None])
    assert report.passed
    assert report.witnesses == []
    assert report.info == {"mode": "exhaustive"}


def test_run_suite_dedupes_and_orders_witnesses():
    found = [
        {"x": "b", "excess": 1},
        {"x": "a", "y": "c", "excess": 1},
        None,
        {"x": "a", "excess": 1},
        {"x": "b", "excess": 1},
        {"x": "z", "tau": "(1 2)", "excess": 3},
    ]
    report = run_suite("demo", {}, found)
    assert not report.passed
    # worst excess first; then x, y, z, tau, detail with missing fields as ""
    assert report.witnesses == [
        {"x": "z", "tau": "(1 2)", "excess": 3},
        {"x": "a", "excess": 1},
        {"x": "a", "y": "c", "excess": 1},
        {"x": "b", "excess": 1},
    ]
