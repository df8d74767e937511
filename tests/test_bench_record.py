"""Smoke test of scripts/bench_record.py: one workload, tiny inputs, the schema of its output."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_record_has_every_declared_metric(tmp_path):
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_record.py"), "--out", str(out),
         "--tree", f"base={ROOT}", "--tree", f"new={ROOT}", "--workload", "variety-dims",
         "--seed", "3", "--seconds", "0.3", "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"settings", "environment", "end_to_end", "failed", "per_layer", "comparison"}
    assert doc["settings"]["trees"] == ["base", "new"]
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for label in ("base", "new"):
        assert doc["environment"]["trees"][label]["run_env"]["python"]
        stats = doc["end_to_end"][label]["variety-dims"]
        assert {name: s["unit"] for name, s in stats.items()} == end_to_end
        for s in stats.values():
            assert s["q1"] <= s["median"] <= s["q3"] and len(s["runs"]) == 1
        failed = doc["failed"][label]["variety-dims"]
        assert failed["failed"] == 0 and failed["attempted"] >= 1
        traced = doc["per_layer"][label]["variety-dims"]
        assert set(traced["metrics"]) == per_layer and traced["absent"] == []
    rows = doc["comparison"]["workloads"]["variety-dims"]
    assert set(rows) == set(end_to_end)
    assert all(r["pairs"] == 1 and r["new_wins"] + r["base_wins"] <= 1 for r in rows.values())
