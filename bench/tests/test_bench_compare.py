"""``bench compare`` verdicts on synthetic result pairs."""

import json

from bench import metrics
from bench.compare import compare_files, verdict

E2E = {m.name: m for m in metrics.END_TO_END}
#: Synthetic metrics with a 10 % bound, so the cases below read off directly.
LOWER = metrics.EndToEnd("t_s", "s", "lower", 0.10, 0.0, None, "a time")
HIGHER = metrics.EndToEnd("rate", "1/s", "higher", 0.10, 0.0, None, "a rate")


def _stat(median, spread=0.01):
    return {"median": median, "spread": spread, "unit": "x"}


def test_verdicts_follow_bound_direction_and_noise():
    wall = LOWER
    assert verdict(wall, _stat(1.0), _stat(1.05))[0] == "same"
    assert verdict(wall, _stat(1.0), _stat(1.2))[0] == "worse"
    assert verdict(wall, _stat(1.0), _stat(0.8))[0] == "better"
    # A 20 % change inside a 30 % run-to-run spread proves nothing either way.
    assert verdict(wall, _stat(1.0, 0.3), _stat(1.2))[0] == "unresolved"
    assert verdict(wall, _stat(1.0, 0.3), _stat(1.0))[0] == "unresolved"
    rate = HIGHER
    assert verdict(rate, _stat(1000.0), _stat(800.0))[0] == "worse"
    assert verdict(rate, _stat(1000.0), _stat(1300.0))[0] == "better"
    result, change = verdict(wall, _stat(2.0), _stat(2.5))
    assert result == "worse" and change == 0.25            # ratio with its base


def test_absolute_floors_and_zero_bases():
    assert verdict(E2E["setup_s"], _stat(0.10), _stat(0.14))[0] == "same"   # < 0.1 s
    assert verdict(E2E["reuse_fraction"], _stat(0.8, 0.0), _stat(0.7995, 0.0))[0] == "same"
    assert verdict(E2E["reuse_fraction"], _stat(0.8, 0.0), _stat(0.7, 0.0))[0] == "worse"
    assert verdict(E2E["fail_rate"], _stat(0.0, 0.0), _stat(0.0, 0.0))[0] == "same"
    assert verdict(E2E["fail_rate"], _stat(0.0, 0.0), _stat(0.01, 0.0))[0] == "worse"
    assert verdict(E2E["rel_error"], _stat(0.0, 0.0), _stat(1e-9, 0.0))[0] == "worse"


def _result(path, wall, host=None):
    document = {
        "host": host or {"nproc": 2, "machine": "x86_64", "python": "3.11", "numpy": "1"},
        "seed": 1, "reps": 3, "loadavg_1m": 0.1, "comparable": True,
        "workloads": {"memo_hot": {
            "checksum": "c", "input_digest": "d", "tasks": 10,
            "end_to_end": {"wall_s": _stat(wall), "fail_rate": _stat(0.0, 0.0)},
        }},
    }
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_files_exit_codes_and_host_refusal(tmp_path, capsys):
    base = _result(tmp_path / "a.json", 1.0)
    assert compare_files(base, _result(tmp_path / "b.json", 1.02)) == 0
    assert compare_files(base, _result(tmp_path / "c.json", 1.6)) == 1
    table = capsys.readouterr().out
    assert "worse" in table and "+60.0%" in table and "memo_hot" in table
    other = _result(tmp_path / "d.json", 1.0, host={
        "nproc": 8, "machine": "x86_64", "python": "3.11", "numpy": "1"})
    assert compare_files(base, other) == 2
    assert "nproc" in capsys.readouterr().err
    assert compare_files(base, other, force=True) == 0
