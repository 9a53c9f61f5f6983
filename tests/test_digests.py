"""The golden-digest tool's job runner (``tools/digests.py``): a whole run's
artifacts and stdout keep their bytes from run to run and whatever the
block sizes of the transforms, the row blocks and the CSV writer."""

import importlib.util
import json
from pathlib import Path

from nyqmirror import formats, rowblocks, tf_analysis

# a 20 s cosine-warped tone, mt_rm masked above the INF, every format; and
# a 60 s synthetic beat train, its EDR also at order 12 under mt_sst, whose
# blocks keep part of their bins
_SCENARIO = {"signal": {"kind": "harmonic", "freq_hz": 2.5},
             "scheme": {"kind": "cosine", "base_hz": 7.0, "depth_hz": 0.5, "period_s": 10.0},
             "duration_s": 20.0, "resample_hz": 16.0}
JOBS = {
    "tfr": ["tfr", "--set", "scenario=" + json.dumps(_SCENARIO),
            "--set", "analysis.method=mt_rm", "--set", "analysis.window_s=4",
            "--set", "mitigation.inf_mask=true"],
    "physio": ["physio", "--set", 'physio.synth={"duration_s": 60}',
               "--set", "analysis.window_s=8", "--set", "analysis.hop=4",
               "--set", "mitigation.inf_mask=true"],
    "physio12": ["physio", "--set", 'physio.synth={"duration_s": 60}',
                 "--set", "analysis.window_s=8", "--set", "analysis.hop=4",
                 "--set", "analysis.method=mt_sst", "--set", "physio.edr_scheme=12"],
}


def _digests():
    path = Path(__file__).parents[1] / "tools" / "digests.py"
    spec = importlib.util.spec_from_file_location("digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_whole_run_bytes_do_not_depend_on_block_sizes(tmp_path, monkeypatch):
    digests = _digests()
    first = digests.run_jobs(JOBS, tmp_path / "first")
    assert all(job["exit"] == 0 for job in first.values())
    assert {"tfr.csv", "tfr.tfr1", "tfr.pgm", "tfr_masked.csv"} <= set(first["tfr"]["files"])
    assert {"edr_tfr.csv", "edr_tfr_masked.tfr1"} <= set(first["physio"]["files"])
    assert digests.run_jobs(JOBS, tmp_path / "again") == first
    monkeypatch.setattr(rowblocks, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(tf_analysis, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(formats, "_CSV_BLOCK_OWN", 97)
    monkeypatch.setattr(formats, "_CSV_BLOCK_CELLS", 300)
    assert digests.run_jobs(JOBS, tmp_path / "small_blocks") == first
