"""``run.py --smoke``: all six workloads at toy size, traced and untraced (< 20 s)."""

import math
from pathlib import Path

import metrics
import run
from library import GRAPH_PROGRAMS, SEQUENCE_PROGRAMS
from serving import WORK


def _service_processes():
    """Argument vectors of live processes that are a benchmark server.

    Matched on whole arguments (``python -u -m repro.service …`` or
    ``python -u …/traced_server.py …``), not on substrings: a shell whose
    command line merely mentions those names is not a server.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                argv = (entry / "cmdline").read_bytes().decode(errors="replace").split("\0")
            except OSError:
                continue
            if argv[1:4] == ["-u", "-m", "repro.service"] or (
                argv[1:2] == ["-u"] and argv[2].endswith("traced_server.py")
            ):
                found.append(argv)
    return found


def test_smoke_emits_exactly_the_declared_metrics_and_cleans_up():
    spec = metrics.load_spec()
    results = run.smoke([workload["name"] for workload in spec["workloads"]])
    assert len(results) == 12

    for (name, traced), result in results.items():
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        # ``correct`` also says the oracle checks ran: a serve run that never
        # compared an answer reports False.
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert set(result["metrics"]) == set(declared), name
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == declared[metric], (name, metric)
            assert math.isfinite(entry["value"]), (name, metric)
            assert traced or entry["value"] > 0, (name, metric)

    # The outside-in trace reaches each layer on the workload meant to reach
    # it, and reads zero where the workload bypasses the layer.
    def layer(name, metric):
        return results[(name, True)]["metrics"][metric]["value"]

    for program in SEQUENCE_PROGRAMS:
        assert layer("eval_sequences", f"engine.fixpoint.eval_s.{program}") > 0
        assert layer("eval_graph", f"engine.fixpoint.eval_s.{program}") == 0
    for program in GRAPH_PROGRAMS:
        assert layer("eval_graph", f"engine.fixpoint.eval_s.{program}") > 0
    assert layer("serve_read", "service.core.view_select_ms") > 0
    assert layer("serve_read", "io.serialization.rows_to_json_ms") > 0
    assert layer("serve_read", "engine.tabling.lookup_ms") == 0
    assert layer("serve_read", "io.durability.sync_ms") == 0
    assert layer("serve_goal", "engine.tabling.hit_rate") > 0.5
    assert layer("serve_goal", "transform.magic.rewrites") == 1
    assert layer("serve_goal", "service.core.view_select_ms") == 0
    assert layer("serve_write", "io.durability.fsyncs_per_update") > 0
    assert layer("serve_write", "io.durability.recover_ms") > 0
    assert layer("serve_write", "io.durability.restore_s") > 0
    assert layer("serve_write", "engine.maintenance.update_ms") > 0
    assert layer("serve_mixed", "engine.maintenance.update_ms") > 0
    assert layer("serve_mixed", "io.durability.sync_ms") == 0
    for name in ("serve_read", "serve_write", "serve_mixed", "serve_goal"):
        assert layer(name, "service.http.overhead_ms") > 0
        assert 0 < layer(name, "trace.accounted_fraction") <= 1.001

    assert not WORK.exists() or not any(WORK.iterdir())
    assert _service_processes() == []
