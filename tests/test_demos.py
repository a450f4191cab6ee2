"""Smoke test: the quick demos run to completion.

Demo 04 is left out: it solves the unpruned unc(K7), which the acceptance
fixture already covers, and takes over ten seconds.
"""

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize(
    "name",
    [
        "01_graphs_and_planarity",
        "02_uncrossed_collections",
        "03_weighted_families",
        "05_hex_grids_and_tiles",
        "06_rendering",
    ],
)
def test_demo_runs(tmp_path, name):
    # run in tmp_path, so files a demo writes (06 writes out_svg_k5/) land there
    path = ROOT / "demos" / f"{name}.py"
    proc = run_python(f"import runpy; runpy.run_path({str(path)!r}, run_name='__main__')", 120, tmp_path)
    assert proc.returncode == 0, proc.stderr
