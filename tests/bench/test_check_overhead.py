"""The perf-smoke gate over a traced bench_e2e run."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "check_overhead.py"
_spec = importlib.util.spec_from_file_location("check_overhead", _PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _result(overhead=7.0, failed=0, share=0.0, correct=True, rebuilds=0,
            cc_overhead=4.0, hash_ms=12.0, build_ms=8.0, load_ms=36.5,
            write_ms=16.9, partition_ms=40.0, fallbacks=0, resets=16):
    return {"correct": correct, "attempted": 220, "failed": failed,
            "metrics": {"overhead.sssp_x": {"value": overhead, "unit": "x"},
                        "overhead.cc_x": {"value": cc_overhead, "unit": "x"},
                        "graph.csr.rebuilds": {"value": rebuilds,
                                               "unit": "count"},
                        "graph.content_hash_ms": {"value": hash_ms,
                                                  "unit": "ms"},
                        "graph.csr.build_ms": {"value": build_ms,
                                               "unit": "ms"},
                        "partition.build_ms": {"value": partition_ms,
                                               "unit": "ms"},
                        "store.snapshot.load_ms": {"value": load_ms,
                                                   "unit": "ms"},
                        "store.snapshot.write_ms": {"value": write_ms,
                                                    "unit": "ms"},
                        "core.updates.fallback_reruns": {"value": fallbacks,
                                                         "unit": "count"},
                        "core.updates.partial_resets": {"value": resets,
                                                        "unit": "count"},
                        "failed_ops_share": {"value": share,
                                             "unit": "share"}}}


def test_passes_under_the_bound_with_no_failed_operation():
    assert gate.check(_result()) == []
    assert gate.check(_result(overhead=gate.MAX_SSSP_OVERHEAD_X)) == []


def test_fails_when_the_coordinator_grows_back():
    (problem,) = gate.check(_result(overhead=49.5))
    assert "overhead.sssp_x" in problem


def test_fails_when_dicts_grow_back_beside_the_arrays():
    # what a served read cost with a dict mirror beside every array
    # state passes no more; LocalComponents as the CC state neither
    assert gate.MAX_SSSP_OVERHEAD_X < 30.0
    assert gate.check(_result(cc_overhead=gate.MAX_CC_OVERHEAD_X)) == []
    (problem,) = gate.check(_result(cc_overhead=12.6))
    assert "overhead.cc_x = 12.6 > 10" in problem
    result = _result()
    del result["metrics"]["overhead.cc_x"]
    assert gate.check(result)


def test_fails_when_reads_after_writes_rebuild_snapshots_again():
    assert gate.check(_result(rebuilds=gate.MAX_CSR_REBUILDS)) == []
    (problem,) = gate.check(_result(rebuilds=20))  # the count before splices
    assert "graph.csr.rebuilds = 20" in problem
    # ... and before fresh partitions installed their snapshots
    (problem,) = gate.check(_result(rebuilds=4))
    assert "graph.csr.rebuilds = 4 > 0" in problem
    result = _result()
    del result["metrics"]["graph.csr.rebuilds"]
    assert gate.check(result)


def test_fails_when_the_content_hash_visits_every_record_again():
    bound = gate.MAX_HASH_OVER_CSR_BUILD_X
    assert gate.check(_result(hash_ms=bound * 8.0, build_ms=8.0)) == []
    # the per-record format / encode / crc32 loop, road-lowcut
    (problem,) = gate.check(_result(hash_ms=73.3, build_ms=11.4))
    assert "graph.content_hash_ms = 73.3 > 3 x" in problem
    for name in ("graph.content_hash_ms", "graph.csr.build_ms"):
        result = _result()
        del result["metrics"][name]
        assert gate.check(result)


def test_fails_when_the_partition_is_built_edge_by_edge_again():
    bound = gate.MAX_PARTITION_OVER_CSR_BUILD_X
    assert gate.check(_result(partition_ms=bound * 8.0, build_ms=8.0)) == []
    # dict graphs filled edge by edge, social-hashcut
    (problem,) = gate.check(_result(partition_ms=77.0, build_ms=9.2))
    assert "partition.build_ms = 77.0 > 6.5 x" in problem
    result = _result()
    del result["metrics"]["partition.build_ms"]
    assert gate.check(result)


def test_fails_when_a_restart_builds_dict_graphs_again():
    bound = gate.MAX_LOAD_OVER_WRITE_X
    assert gate.check(_result(load_ms=bound * 16.0, write_ms=16.0)) == []
    # the loader that rebuilt every dict graph, social-hashcut
    (problem,) = gate.check(_result(load_ms=88.6, write_ms=18.1))
    assert "store.snapshot.load_ms = 88.6 > 3 x" in problem
    for name in ("store.snapshot.load_ms", "store.snapshot.write_ms"):
        result = _result()
        del result["metrics"][name]
        assert gate.check(result)


def test_fails_when_update_batches_recompute_again():
    # 0 fallback reruns and 16 partial resets: the traced social-hashcut run
    assert gate.check(_result(fallbacks=0, resets=16)) == []
    assert gate.check(_result(resets=gate.MIN_PARTIAL_RESETS)) == []
    (problem,) = gate.check(_result(fallbacks=1))
    assert "core.updates.fallback_reruns = 1 (at most 0)" in problem
    # no mixed batch reached the bounded path
    (problem,) = gate.check(_result(resets=0))
    assert "core.updates.partial_resets = 0 (at least 1)" in problem
    for name in ("core.updates.fallback_reruns",
                 "core.updates.partial_resets"):
        result = _result()
        del result["metrics"][name]
        (problem,) = gate.check(result)
        assert problem.startswith("no core.updates.fallback_reruns")


def test_fails_on_any_failed_operation():
    assert gate.check(_result(failed=1, share=1 / 220, correct=False))
    assert gate.check(_result(correct=False))


def test_untraced_result_is_refused():
    result = _result()
    del result["metrics"]["overhead.sssp_x"]
    assert gate.check(result)


def test_main_reads_the_last_line(tmp_path, capsys):
    out = tmp_path / "e2e.out"
    out.write_text("overhead.sssp_x  10 x\nDETAIL {}\n"
                   + json.dumps(_result()) + "\n")
    assert gate.main(["check_overhead.py", str(out)]) == 0
    out.write_text(json.dumps(_result(overhead=60.0)) + "\n")
    assert gate.main(["check_overhead.py", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    out.write_text("not a result\n")
    assert gate.main(["check_overhead.py", str(out)]) == 2
