"""Paths and result recording shared by the ``bench_*`` scripts."""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# traffic_like scale of the ablation and throughput benches (~1.1k nodes)
TRAFFIC_SCALE = 0.30


def record(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print(f"\n{text}")
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
