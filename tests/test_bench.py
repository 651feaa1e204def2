from unittest import mock

import pytest

from rdvmatch import bench
from rdvmatch.bench import (
    CSV_FIELDS,
    NOT_COUNTED,
    NOT_MATERIALIZED,
    bench_sweep,
    crosscheck,
    doubling_ratios,
    records_to_csv,
    verify_matching,
)
from rdvmatch.core import HostTree, Matching, RdvInstance, VertexPath
from rdvmatch.gen import GenConfig, gen_random
from rdvmatch.matching import delayed_greedy

from conftest import random_instance

# every test runs on the native route, then on the pure one: see conftest.route
pytestmark = pytest.mark.usefixtures("route")


def k2():
    return RdvInstance(HostTree([0]), (VertexPath(1, 1), VertexPath(1, 1)), 1)


def edgeless():
    return RdvInstance(
        HostTree([0, 1, 1]), (VertexPath(2, 2), VertexPath(3, 3)), 1
    )


def triangle():
    # three vertices on one node; in bottom-up order 1, 2, 3 the
    # reference greedy matches 1 to 2 and leaves 3 free
    return RdvInstance(HostTree([0]), (VertexPath(1, 1),) * 3, 1)


class TestCrosscheck:
    def test_k2_passes(self):
        report = crosscheck(k2())
        assert report.ok
        names = [e.name for e in report.entries]
        assert names == ["run", "validity", "order-maximality", "optimality"]

    def test_edgeless_passes(self):
        assert crosscheck(edgeless()).ok

    def test_random_sweep_passes(self):
        for seed in range(30):
            report = crosscheck(random_instance(seed))
            assert report.ok, report.failures()

    def test_skips_oracle_above_bound(self):
        inst = random_instance(3, n=30, tree_nodes=40)
        report = crosscheck(inst, bound=24)
        assert report.ok
        assert "optimality" not in [e.name for e in report.entries]

    def test_invalid_instance_reported_not_raised(self):
        inst = RdvInstance(HostTree([0, 1]), (VertexPath(2, 1),), 1)
        report = crosscheck(inst)
        assert not report.ok
        assert report.entries[0].name == "run"


class TestVerifyMatching:
    def test_flags_non_edges(self):
        entries = verify_matching(edgeless(), Matching([(1, 2)]))
        validity = next(e for e in entries if e.name == "validity")
        assert not validity.passed

    def test_flags_non_maximal_matching(self):
        entries = verify_matching(k2(), Matching())
        maximality = next(e for e in entries if e.name == "order-maximality")
        assert not maximality.passed
        assert "free neighbor" in maximality.detail

    def test_flags_partner_the_reference_leaves_free(self):
        entries = verify_matching(edgeless(), Matching([(1, 2)]))
        maximality = next(e for e in entries if e.name == "order-maximality")
        assert not maximality.passed
        assert maximality.detail == (
            "vertex 1 matched to 2, which the reference greedy leaves free"
        )

    def test_flags_other_partner(self):
        entries = verify_matching(triangle(), Matching([(1, 3)]))
        assert [(e.name, e.passed) for e in entries] == [
            ("validity", True),
            ("order-maximality", False),
        ]
        assert entries[1].detail == "vertex 1 matched to 3, not to the reference greedy's 2"

    def test_short_mate_array_reads_free_past_its_end(self):
        # Matching(pairs) sizes its mate array by the largest id, 2 here,
        # so vertex 3 lies past its end; an empty one holds slot 0 alone
        entries = verify_matching(triangle(), Matching([(1, 2)]))
        assert all(e.passed for e in entries), entries
        entries = verify_matching(triangle(), Matching())
        assert entries[1].detail == "vertex 1 left free despite free neighbor 2"

    def test_ids_above_n_are_non_edges(self):
        inst = gen_random(GenConfig(seed=1, tree_nodes=4, n_vertices=1))
        for pair in ((inst.n + 1, inst.n + 3), (inst.n, inst.n + 1)):
            validity = verify_matching(inst, Matching([pair]))[0]
            assert validity.name == "validity" and not validity.passed
            assert validity.detail == f"non-edges in matching: {[pair]}"

    def test_accepts_honest_run(self):
        inst = random_instance(8, n=20, tree_nodes=25)
        entries = verify_matching(inst, delayed_greedy(inst))
        assert all(e.passed for e in entries)


class TestBenchSweep:
    def test_two_rows_with_schema(self):
        records = bench_sweep("dense", range(3, 5), repeats=3)
        assert len(records) == 2
        assert [r.n for r in records] == [8, 16]
        assert all(r.median_ns > 0 for r in records)
        assert all(r.matching_size <= r.n // 2 for r in records)
        assert all(r.algo == "delayed" for r in records)
        csv_text = records_to_csv(records, repeats=3)
        lines = csv_text.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == ",".join(CSV_FIELDS)
        assert len(lines) == 4

    def test_edges_not_materialized_for_large_n(self):
        records = bench_sweep("dense", range(9, 10), repeats=1)
        assert records[0].edges == NOT_MATERIALIZED

    def test_edges_counted_for_small_n(self):
        records = bench_sweep("dense", range(5, 6), repeats=1)
        assert isinstance(records[0].edges, int)
        assert records[0].edges >= 32 * 32 // 8

    def test_random_family_and_ratios(self):
        records = bench_sweep("random", range(4, 7), repeats=2)
        assert [r.n for r in records] == [16, 32, 64]
        assert len(doubling_ratios(records)) == 2

    def test_minor_faults_per_solve(self):
        """A count of minor page faults per solve where ``resource``
        exists, and a marker where it does not."""
        expected = int if bench.resource else str
        for record in bench_sweep("random", range(4, 6), repeats=3):
            assert isinstance(record.minor_faults, expected)
            assert expected is str or record.minor_faults >= 0
        with mock.patch.object(bench, "resource", None):
            records = bench_sweep("random", range(4, 5), repeats=1)
        assert records[0].minor_faults == NOT_COUNTED

    def test_comb_family_is_edgeless(self):
        records = bench_sweep("comb", range(3, 5), repeats=1)
        assert [(r.n, r.tree_nodes, r.edges, r.matching_size) for r in records] == [
            (8, 16, 0, 0),
            (16, 32, 0, 0),
        ]
