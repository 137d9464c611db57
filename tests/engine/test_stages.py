"""Unit tests for the plan → stage compiler."""

import numpy as np
import pytest

from repro.engine.plan import InputSource, LogicalPlan, OperatorKind, PlanNode
from repro.engine.stages import (
    Stage,
    StageCompilerConfig,
    StageGraph,
    compile_stages,
)


def scan(rows=1e7, nbytes=2e9):
    return PlanNode(
        kind=OperatorKind.SCAN, source=InputSource("t", nbytes, rows)
    )


def exchange(child):
    return PlanNode(
        kind=OperatorKind.EXCHANGE, children=[child], rows_out=child.rows_out
    )


def agg_over(child, rows_out=100.0):
    return PlanNode(
        kind=OperatorKind.AGGREGATE, children=[child], rows_out=rows_out
    )


class TestStage:
    def test_rejects_zero_tasks(self):
        with pytest.raises(ValueError):
            Stage(stage_id=0, num_tasks=0, task_seconds=1.0)

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            Stage(stage_id=0, num_tasks=1, task_seconds=0.0)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_rejects_non_finite_duration(self, seconds):
        with pytest.raises(ValueError, match="finite"):
            Stage(stage_id=0, num_tasks=1, task_seconds=seconds)

    def test_skew_factor_inflates_tail_tasks(self):
        stage = Stage(
            stage_id=0, num_tasks=20, task_seconds=1.0,
            skew_fraction=0.1, skew_factor=2.0,
        )
        d = stage.task_durations()
        assert d.shape == (20,)
        assert np.allclose(d[:-2], 1.0)
        assert np.allclose(d[-2:], 2.0)

    def test_work_share_skew_grows_with_width(self):
        small = Stage(
            stage_id=0, num_tasks=10, task_seconds=1.0, skew_work_share=0.05
        )
        large = Stage(
            stage_id=0, num_tasks=100, task_seconds=1.0, skew_work_share=0.05
        )
        assert large.task_durations().max() > small.task_durations().max()

    def test_total_work_and_max(self):
        stage = Stage(stage_id=0, num_tasks=4, task_seconds=2.0)
        assert stage.total_work == pytest.approx(8.0)
        assert stage.max_task_seconds == pytest.approx(2.0)


class TestStageGraph:
    def make_graph(self):
        return StageGraph(
            stages=[
                Stage(stage_id=0, num_tasks=10, task_seconds=1.0),
                Stage(stage_id=1, num_tasks=5, task_seconds=2.0),
                Stage(
                    stage_id=2, num_tasks=1, task_seconds=3.0,
                    dependencies=[0, 1],
                ),
            ],
            driver_seconds=4.0,
        )

    def test_validates_ids_and_deps(self):
        graph = self.make_graph()
        assert graph.total_tasks == 16
        assert graph.total_work == pytest.approx(10 + 10 + 3)
        assert graph.max_stage_width == 10

    def test_forward_dependency_rejected(self):
        with pytest.raises(ValueError, match="earlier"):
            StageGraph(
                stages=[
                    Stage(stage_id=0, num_tasks=1, task_seconds=1.0,
                          dependencies=[1]),
                    Stage(stage_id=1, num_tasks=1, task_seconds=1.0),
                ]
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError):
            StageGraph(stages=[
                Stage(stage_id=0, num_tasks=1, task_seconds=1.0,
                      dependencies=[5]),
            ])

    def test_non_contiguous_ids_rejected(self):
        with pytest.raises(ValueError, match="0..len-1"):
            StageGraph(stages=[Stage(stage_id=3, num_tasks=1, task_seconds=1.0)])

    def test_critical_path_includes_driver_and_chain(self):
        graph = self.make_graph()
        # longest chain: stage1 (2s max task) -> stage2 (3s), plus driver 4
        assert graph.critical_path_seconds() == pytest.approx(4 + 2 + 3)


class TestCompileStages:
    def test_single_region_single_stage(self):
        plan = LogicalPlan(root=agg_over(scan()), query_id="q")
        graph = compile_stages(plan)
        assert len(graph.stages) == 1
        assert graph.query_id == "q"

    def test_exchange_creates_stage_boundary(self):
        plan = LogicalPlan(root=agg_over(exchange(scan())))
        graph = compile_stages(plan)
        assert len(graph.stages) == 2
        assert graph.stages[1].dependencies == [0]

    def test_two_exchanges_three_stages(self):
        join = PlanNode(
            kind=OperatorKind.JOIN,
            children=[exchange(scan()), exchange(scan())],
            rows_out=1e6,
        )
        plan = LogicalPlan(root=agg_over(join))
        graph = compile_stages(plan)
        assert len(graph.stages) == 3
        assert sorted(graph.stages[2].dependencies) == [0, 1]

    def test_scan_stage_width_scales_with_bytes(self):
        cfg = StageCompilerConfig()
        small = compile_stages(
            LogicalPlan(root=agg_over(scan(rows=1e5, nbytes=cfg.split_bytes)))
        )
        big = compile_stages(
            LogicalPlan(
                root=agg_over(scan(rows=1e5, nbytes=20 * cfg.split_bytes))
            )
        )
        assert big.stages[0].num_tasks > small.stages[0].num_tasks

    def test_wide_internal_operator_widens_stage(self):
        # an expand inflating rows inside a shuffle stage must widen it
        cfg = StageCompilerConfig()
        rows = cfg.rows_per_shuffle_partition * 4
        ex = exchange(scan(rows=rows))
        ex.rows_out = rows
        narrow = compile_stages(LogicalPlan(root=agg_over(ex.copy())))
        expand = PlanNode(
            kind=OperatorKind.EXPAND, children=[ex], rows_out=rows * 8
        )
        wide = compile_stages(LogicalPlan(root=agg_over(expand)))
        assert wide.stages[-1].num_tasks > narrow.stages[-1].num_tasks

    def test_width_cap_respected(self):
        cfg = StageCompilerConfig(max_tasks_per_stage=7)
        graph = compile_stages(
            LogicalPlan(root=agg_over(scan(nbytes=1e12))), cfg
        )
        assert graph.max_stage_width <= 7

    def test_shuffle_stage_width_from_boundary_rows(self):
        cfg = StageCompilerConfig()
        rows = cfg.rows_per_shuffle_partition * 10
        ex = exchange(scan(rows=rows))
        ex.rows_out = rows
        plan = LogicalPlan(root=agg_over(ex))
        graph = compile_stages(plan, cfg)
        # the downstream (aggregate) stage reads 10 partitions
        assert graph.stages[1].num_tasks == 10

    def test_more_work_more_total_seconds(self):
        lo = compile_stages(LogicalPlan(root=agg_over(scan(rows=1e6, nbytes=1e8))))
        hi = compile_stages(LogicalPlan(root=agg_over(scan(rows=1e9, nbytes=1e11))))
        assert hi.total_work > lo.total_work * 10

    def test_driver_seconds_grow_with_stage_count(self):
        one = compile_stages(LogicalPlan(root=agg_over(scan())))
        three = compile_stages(
            LogicalPlan(root=agg_over(exchange(agg_over(exchange(scan()), 1e5))))
        )
        assert three.driver_seconds > one.driver_seconds

    def test_working_set_proportional_to_input(self):
        cfg = StageCompilerConfig()
        graph = compile_stages(LogicalPlan(root=agg_over(scan(nbytes=4e9))), cfg)
        assert graph.working_set_bytes == pytest.approx(
            4e9 * cfg.working_set_fraction
        )

    def test_deterministic(self):
        plan = LogicalPlan(root=agg_over(exchange(scan())))
        g1, g2 = compile_stages(plan), compile_stages(plan)
        assert [s.num_tasks for s in g1.stages] == [s.num_tasks for s in g2.stages]
        assert [s.task_seconds for s in g1.stages] == [
            s.task_seconds for s in g2.stages
        ]
