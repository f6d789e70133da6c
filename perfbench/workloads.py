"""Inputs and queries of the benchmark's workloads.

Every input comes from the ``repro.data`` generators under the run's
seed; the same seed gives the same records.  ``scale`` shrinks every
size (the self-test runs at tiny scales; real runs use 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.honeynet import HoneynetGenerator
from repro.data.synthetic import SyntheticGenerator
from repro.queries.combined import combined_workflow
from repro.queries.q1_child_parent import q1_workflow
from repro.storage.external_sort import DEFAULT_RUN_SIZE
from repro.workflow.workflow import AggregationWorkflow

#: Synthetic rows of the Fig 6(a) Q1 workload.
Q1_ROWS = 60_000
#: Background records of the network trace of the combined workload;
#: with the injected episodes the trace stays under the in-memory sort
#: limit (``DEFAULT_RUN_SIZE``).
NETLOG_BACKGROUND = 100_000
#: The lattice reads twice the in-memory sort limit, so it spills.
LATTICE_ROWS = 2 * DEFAULT_RUN_SIZE
#: Background records of the live service's trace; with the injected
#: episodes the trace holds about 20k records.
LIVE_BACKGROUND = 16_000


def lattice_workflow(schema) -> AggregationWorkflow:
    """Fig 6(c)-shaped distributive lattice: sum/min/max/count basics
    at coarse granularities plus one roll-up."""
    wf = AggregationWorkflow(schema, name="fig6c-lattice")
    wf.basic("sum_d0", {"d0": "d0.L2"}, agg=("sum", "v"))
    wf.basic("sum_d0d1", {"d0": "d0.L2", "d1": "d1.L2"}, agg=("sum", "v"))
    wf.basic("min_d1", {"d1": "d1.L2"}, agg=("min", "v"))
    wf.basic("max_d2", {"d2": "d2.L2"}, agg=("max", "v"))
    wf.basic("cnt_d2d3", {"d2": "d2.L2", "d3": "d3.L2"}, agg="count")
    wf.rollup("sum_total", {}, source="sum_d0", agg=("sum", "M"))
    return wf


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: generated records, a query, engine options."""

    schema: Callable[[], object]
    records: Callable[[int, float], list]  # (seed, scale) -> records
    workflow: Callable
    run_size: Callable[[float], int]


def _synthetic_schema():
    return SyntheticGenerator().schema


def _network_schema():
    return HoneynetGenerator().schema


def _synthetic(rows: int):
    def records(seed: int, scale: float) -> list:
        gen = SyntheticGenerator(seed=seed)
        return list(gen.records(max(200, int(rows * scale))))

    return records


def _honeynet(background: int):
    def records(seed: int, scale: float) -> list:
        gen = HoneynetGenerator(seed=seed).with_default_episodes()
        return list(gen.records(max(200, int(background * scale))))

    return records


def _default_run_size(scale: float) -> int:
    return DEFAULT_RUN_SIZE


def _scaled_run_size(scale: float) -> int:
    # Keeps the lattice spilling at any scale: rows = 2 x run size.
    return max(100, int(DEFAULT_RUN_SIZE * scale))


BATCH = {
    "q1-child-parent": BatchSpec(
        _synthetic_schema,
        _synthetic(Q1_ROWS),
        lambda schema: q1_workflow(schema, num_children=7),
        _default_run_size,
    ),
    "netlog-combined": BatchSpec(
        _network_schema,
        _honeynet(NETLOG_BACKGROUND),
        combined_workflow,
        _default_run_size,
    ),
    "lattice-spill": BatchSpec(
        _synthetic_schema,
        _synthetic(LATTICE_ROWS),
        lattice_workflow,
        _scaled_run_size,
    ),
}


def live_trace(seed: int, scale: float):
    """The live workload's network trace, in time order."""
    gen = HoneynetGenerator(seed=seed).with_default_episodes()
    count = max(500, int(LIVE_BACKGROUND * scale))
    return gen.schema, sorted(gen.records(count))
