"""Shared helpers for the benchmark harness.

Every benchmark reproduces one figure or theorem of the paper (see the
per-experiment index in DESIGN.md and the measured outcomes in
EXPERIMENTS.md).  Each module both *checks* the qualitative claim (the
"shape" of the result) with assertions and *times* the computation with
pytest-benchmark.

Running with ``--json`` additionally writes one machine-readable
``BENCH_<name>.json`` file per recorded benchmark (wall time and the
relevant engine counters — ``extension_attempts``, ``plan_cache_hits``, …)
into the repository root, so the performance trajectory can be tracked
across commits; CI uploads these as workflow artifacts.  Benchmarks opt in
by taking the ``bench_report`` fixture and calling it with a name and the
fields to persist.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import pytest

from repro.workloads import random_graph_instance, random_string_instance


#: The repository root — anchored on this file's location, *not* on pytest's
#: ``rootpath``.  The rootpath follows the directory pytest is invoked from
#: (its rootdir detection), so a CI step or developer running from anywhere
#: but the checkout root would scatter the BENCH files where nothing looks
#: for them; that is exactly how the benchmark trajectory ended up empty.
REPO_ROOT = Path(__file__).resolve().parent.parent


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store_true",
        default=False,
        help="write machine-readable BENCH_<name>.json result files into the repo root",
    )
    parser.addoption(
        "--json-dir",
        default=None,
        help="directory for the BENCH_<name>.json files (default: the repo root)",
    )


class BenchmarkReporter:
    """Collects named result records and writes them as ``BENCH_<name>.json``."""

    def __init__(self, root: Path, enabled: bool, *, timed: bool = True):
        self.root = root
        self.enabled = enabled
        self.timed = timed
        self.results: dict[str, dict] = {}

    def record(self, name: str, **fields) -> None:
        """Merge *fields* into the record for benchmark *name*.

        Records carry the environment the run was measured in —
        ``cpu_count``, ``python_version``, and ``timed`` (whether the run
        was a real timing run, i.e. ``--benchmark-disable`` was *not*
        passed) — so a reader of the artifact knows which machine and what
        kind of run produced the wall-time fields.
        """
        self.results.setdefault(
            name,
            {
                "cpu_count": os.cpu_count() or 1,
                "python_version": platform.python_version(),
                "timed": self.timed,
            },
        ).update(fields)

    def flush(self) -> list[Path]:
        if not self.enabled:
            return []
        written = []
        for name, fields in sorted(self.results.items()):
            target = self.root / f"BENCH_{name}.json"
            target.write_text(json.dumps(fields, indent=2, sort_keys=True) + "\n")
            written.append(target)
        return written


@pytest.fixture(scope="session")
def bench_report(request):
    """A callable ``(name, **fields)`` recording machine-readable results.

    Records accumulate across the whole pytest session (several tests may
    contribute fields to one benchmark name) and are flushed to
    ``BENCH_<name>.json`` files at session end when ``--json`` was passed;
    without the flag the recorder is a cheap no-op sink.
    """
    target = request.config.getoption("--json-dir")
    reporter = BenchmarkReporter(
        Path(target) if target else REPO_ROOT,
        request.config.getoption("--json"),
        timed=not request.config.getoption("benchmark_disable", False),
    )
    yield reporter.record
    for target in reporter.flush():
        print(f"wrote {target}")


@pytest.fixture
def string_family():
    """Random string instances used by the redundancy benchmarks."""
    return [random_string_instance(paths=6, max_length=4, seed=seed) for seed in range(3)]


@pytest.fixture
def coloured_graphs():
    """Random graphs with black nodes, used by the Theorem 5.5 / 7.1 benchmarks."""
    instances = []
    for seed in range(3):
        instance = random_graph_instance(nodes=5, edges=8, seed=seed, ensure_path=("a", "b"))
        colours = random_graph_instance(nodes=5, edges=3, seed=seed + 31)
        for fact in colours.facts():
            instance.add("B", fact.paths[0][0:1])
        instances.append(instance)
    return instances
