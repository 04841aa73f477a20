"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

Runs each workload untraced and traced with ``--tiny`` and asserts that
the result line carries exactly the metrics BENCHMARK.json names, each with
its unit, that error_rate is 0, and that the runner refuses to run in a
directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUERY_INFO = [f"{kind}_ms_{q}" for kind in ("analyze", "longest", "goodset") for q in ("p50", "p90")]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def printed(stdout: str) -> dict[str, tuple[float, str]]:
    """The 'name value unit' lines printed before the result line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def check(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, sorted(set(got) ^ set(want))
    lines = printed(proc.stdout)
    assert lines["error_rate"] == (0.0, "1"), lines.get("error_rate")
    for name, unit in want.items():
        assert lines[name][1] == unit, (name, lines[name])
    if not trace:
        for name in want:
            assert result["metrics"][name]["value"] > 0, (workload, name)
        if workload == "query63":
            for name in QUERY_INFO:
                assert lines[name][1] == "ms" and lines[name][0] > 0, (name, lines.get(name))
    print(f"ok {workload} trace={trace}")


def check_refuses_bare_checkout() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("sweep63", 0, cwd=bare)
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok bare checkout refused")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check(workload, trace)
    check_refuses_bare_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
