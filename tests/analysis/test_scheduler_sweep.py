"""The sweep's scheduler axis: canonical order, determinism, CLI flag."""

import json

import pytest

from repro.__main__ import main
from repro.analysis import consensus_sweep, input_patterns, sweep_tasks
from repro.consensus import algorithm1_factory
from repro.net import SchedulerSpec, SilentAdversary, TamperForwardAdversary

SEEDED = SchedulerSpec("seeded-async", seed=17, max_delay=3)
ADVERSARIAL = SchedulerSpec("adversarial", max_delay=3)


def axis_sweep(graph, schedulers, workers=1, adversaries=None):
    return consensus_sweep(
        graph,
        algorithm1_factory(graph, 1),
        f=1,
        adversaries=adversaries or [SilentAdversary(), TamperForwardAdversary()],
        patterns=["all-one", "split"],
        workers=workers,
        schedulers=schedulers,
    )


class TestAxis:
    def test_axis_multiplies_the_work_list(self, c4):
        base = axis_sweep(c4, schedulers=None)
        tripled = axis_sweep(c4, schedulers=[None, SEEDED, ADVERSARIAL])
        assert tripled.runs == 3 * base.runs
        names = [r.scheduler for r in tripled.records]
        assert set(names) == {"sync", "seeded-async", "adversarial"}

    def test_task_nesting_scheduler_between_faults_and_adversaries(self, c4):
        adversaries = [SilentAdversary(), TamperForwardAdversary()]
        patterns = input_patterns(c4)
        tasks = sweep_tasks(
            c4, 1, adversaries, patterns, schedulers=[None, SEEDED]
        )
        assert [t.index for t in tasks] == list(range(len(tasks)))
        per_fault = 2 * len(adversaries) * len(patterns)
        assert tasks[0].scheduler_index == 0
        # The second scheduler block starts after one full adversaries x
        # patterns block, still within the same fault set.
        block = len(adversaries) * len(patterns)
        assert tasks[block].scheduler_index == 1
        assert tasks[block].faulty == tasks[0].faulty
        assert tasks[per_fault].faulty != tasks[0].faulty

    def test_sync_and_lockstep_records_agree(self, c4):
        """The ``None`` axis entry (labelled ``"sync"``) and the lockstep
        spec agree record-for-record inside a sweep."""
        report = axis_sweep(c4, schedulers=[None, SchedulerSpec("lockstep")])
        by_scheduler = {"sync": [], "lockstep": []}
        for r in report.records:
            key = (r.faulty, r.adversary, r.inputs_name)
            by_scheduler[r.scheduler].append((key, r.consensus, r.agreement,
                                              r.validity, r.rounds,
                                              r.transmissions, r.decision))
        assert by_scheduler["sync"] == by_scheduler["lockstep"]

    def test_empty_axis_rejected(self, c4):
        with pytest.raises(ValueError):
            axis_sweep(c4, schedulers=[])


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_async_axis_byte_identical_across_worker_counts(self, c4, workers):
        serial = axis_sweep(c4, schedulers=[SEEDED, ADVERSARIAL], workers=1)
        parallel = axis_sweep(
            c4, schedulers=[SEEDED, ADVERSARIAL], workers=workers
        )
        assert parallel.records == serial.records
        assert parallel.to_json() == serial.to_json()

    def test_seeded_axis_byte_identical_across_runs(self, c4):
        a = axis_sweep(c4, schedulers=[SEEDED])
        b = axis_sweep(c4, schedulers=[SEEDED])
        assert a.to_json() == b.to_json()


class TestChunkedSubmission:
    def test_chunking_covers_every_task_exactly_once(self, c4):
        from repro.analysis.sweep import _chunked
        from repro.net.adversary import standard_adversaries

        tasks = sweep_tasks(
            c4, 1, standard_adversaries(0), input_patterns(c4),
            schedulers=[None, SEEDED],
        )
        for n_workers in (1, 2, 3, 8, len(tasks), len(tasks) + 5):
            chunks = _chunked(tasks, n_workers)
            flat = [t for chunk in chunks for t in chunk]
            assert flat == tasks  # partition, canonical order preserved

    def test_full_battery_chunked_parallel_matches_serial(self, c4):
        """The real battery through the chunked pool (not one future per
        task) still lands every record in its canonical slot."""
        factory = algorithm1_factory(c4, 1)
        serial = consensus_sweep(
            c4, factory, f=1, patterns=["split"], seed=3, workers=1,
            schedulers=[None, SEEDED],
        )
        parallel = consensus_sweep(
            c4, factory, f=1, patterns=["split"], seed=3, workers=2,
            schedulers=[None, SEEDED],
        )
        assert parallel.records == serial.records


class TestCLI:
    def run_cli(self, capsys, extra):
        args = [
            "sweep", "--graph", "cycle:4", "--f", "1",
            "--patterns", "all-one,split", "--fault-limit", "2",
            "--exit-zero",
        ] + extra
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_scheduler_flag_round_trips(self, capsys):
        payload = self.run_cli(
            capsys, ["--scheduler", "seeded-async", "--seed", "7"]
        )
        assert payload["scheduler"] == "seeded-async"
        assert {r["scheduler"] for r in payload["records"]} == {"seeded-async"}

    def test_scheduler_axis_deterministic_across_workers(self, capsys):
        extra = ["--scheduler", "seeded-async,adversarial", "--seed", "5"]
        one = self.run_cli(capsys, extra)
        two = self.run_cli(capsys, extra + ["--workers", "2"])
        one.pop("workers"), two.pop("workers")
        assert one == two

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--graph", "cycle:4", "--f", "1",
                  "--scheduler", "chrono"])
