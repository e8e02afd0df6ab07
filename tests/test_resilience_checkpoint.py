"""Kill/resume round-trip tests for refinement checkpointing."""

import io
import json

import pytest

from repro.cbgp import export_model
from repro.core.build import build_initial_model
from repro.core.predict import evaluate_model
from repro.core.refine import RefinementConfig, Refiner
from repro.errors import CheckpointError
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    load_checkpoint,
    save_checkpoint,
)
from repro.topology.dataset import ObservedRoute, PathDataset

P = Prefix("10.0.0.0/24")


def dataset_from_paths(*paths):
    ds = PathDataset()
    for index, path in enumerate(paths):
        ds.add(ObservedRoute(f"p{index}", path[0], P, ASPath(path)))
    return ds


def exported(model) -> str:
    buffer = io.StringIO()
    export_model(model, buffer)
    return buffer.getvalue()


class TestCheckpointFile:
    """Round trips; every way the file can be damaged is a cell of the
    corruption matrix in ``tests/test_runstate.py``."""

    def test_save_load_round_trip(self, tmp_path):
        ds = dataset_from_paths((1, 2, 4), (1, 3, 4))
        model = build_initial_model(ds)
        path = tmp_path / "refine.ckpt"
        save_checkpoint(path, model.network, 3, 17, 1, [])
        saved = load_checkpoint(path)
        assert saved.iteration == 3
        assert saved.best_matched == 17
        assert saved.stale_iterations == 1
        restored = saved.restore_model()
        assert restored.network.stats() == model.network.stats()
        assert restored.prefix_by_origin == model.prefix_by_origin

    def test_atomic_write_leaves_no_tmp_file(self, tmp_path):
        ds = dataset_from_paths((1, 2, 4))
        model = build_initial_model(ds)
        path = tmp_path / "refine.ckpt"
        save_checkpoint(path, model.network, 1, 0, 0, [])
        save_checkpoint(path, model.network, 2, 0, 0, [])  # overwrite in place
        assert path.exists()
        assert not (tmp_path / "refine.ckpt.tmp").exists()
        assert load_checkpoint(path).iteration == 2

    def test_format_marker_written(self, tmp_path):
        ds = dataset_from_paths((1, 2, 4))
        model = build_initial_model(ds)
        path = tmp_path / "refine.ckpt"
        save_checkpoint(path, model.network, 1, 0, 0, [])
        assert json.loads(path.read_text())["format"] == CHECKPOINT_FORMAT


class TestKillResumeRoundTrip:
    def make_training(self):
        return dataset_from_paths(
            (1, 2, 4), (1, 3, 4), (2, 4), (3, 4), (2, 1, 3, 4), (3, 1, 2, 4)
        )

    def test_resume_reaches_same_model_as_uninterrupted_run(self, tmp_path):
        training = self.make_training()

        # Reference: one uninterrupted run.
        reference = build_initial_model(training)
        ref_result = Refiner(reference, training).run()

        # "Crashed" run: checkpoint every iteration, kill after 1 iteration
        # (max_iterations=1 stands in for the process dying there).
        path = tmp_path / "refine.ckpt"
        killed = build_initial_model(training)
        Refiner(
            killed, training, RefinementConfig(max_iterations=1, checkpoint_every=1)
        ).run(checkpoint=path)
        assert path.exists()

        # Resume with a *fresh* refiner from the same initial conditions.
        resumed_model = build_initial_model(training)
        refiner = Refiner(resumed_model, training)
        resumed = refiner.run(checkpoint=path)

        assert resumed.converged == ref_result.converged
        assert resumed.iteration_count == ref_result.iteration_count
        # the resumed model is the checkpointed one, not the constructor's
        assert resumed.model is not resumed_model
        assert resumed.model.network.stats() == reference.network.stats()
        assert exported(resumed.model) == exported(reference)
        assert (
            evaluate_model(resumed.model, training).counts
            == evaluate_model(reference, training).counts
        )

    def test_resume_after_convergence_is_a_noop(self, tmp_path):
        training = self.make_training()
        path = tmp_path / "refine.ckpt"
        model = build_initial_model(training)
        first = Refiner(
            model, training, RefinementConfig(checkpoint_every=1)
        ).run(checkpoint=path)
        assert first.converged

        again = Refiner(build_initial_model(training), training).run(checkpoint=path)
        assert again.converged
        assert again.iteration_count == first.iteration_count
        assert exported(again.model) == exported(first.model)

    def test_fresh_run_writes_checkpoint_at_stop(self, tmp_path):
        training = self.make_training()
        path = tmp_path / "refine.ckpt"
        model = build_initial_model(training)
        result = Refiner(
            model, training, RefinementConfig(checkpoint_every=50)
        ).run(checkpoint=path)
        # checkpoint_every larger than the run length: still saved at stop
        assert path.exists()
        assert load_checkpoint(path).iteration == result.iteration_count

    def test_checkpoint_for_other_dataset_rejected(self, tmp_path):
        training = self.make_training()
        path = tmp_path / "refine.ckpt"
        model = build_initial_model(training)
        Refiner(
            model, training, RefinementConfig(checkpoint_every=1, max_iterations=1)
        ).run(checkpoint=path)

        other = dataset_from_paths((7, 8, 9), (8, 9))
        refiner = Refiner(build_initial_model(other), other)
        with pytest.raises(CheckpointError):
            refiner.run(checkpoint=path)

    def test_same_origins_different_paths_rejected(self, tmp_path):
        """The fingerprint catches what the origin-presence check cannot."""
        training = self.make_training()
        path = tmp_path / "refine.ckpt"
        Refiner(
            build_initial_model(training),
            training,
            RefinementConfig(checkpoint_every=1, max_iterations=1),
        ).run(checkpoint=path)

        # same origin AS (4), different observed paths
        other = dataset_from_paths((2, 4), (3, 4))
        refiner = Refiner(build_initial_model(other), other)
        with pytest.raises(CheckpointError, match="fingerprint"):
            refiner.run(checkpoint=path)

    def test_mini_pipeline_kill_resume(self, mini_pipeline):
        """Kill/resume equivalence on the synthetic mini end-to-end dataset."""
        import tempfile
        from pathlib import Path

        from repro.core.split import split_by_observation_points

        pruned = mini_pipeline["pruned"]
        training, _ = split_by_observation_points(pruned.dataset, 0.5, seed=5)

        reference = build_initial_model(pruned.dataset, pruned.graph.copy())
        ref_result = Refiner(reference, training).run()

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mini.ckpt"
            killed = build_initial_model(pruned.dataset, pruned.graph.copy())
            Refiner(
                killed, training,
                RefinementConfig(max_iterations=2, checkpoint_every=1),
            ).run(checkpoint=path)

            resumed = Refiner(
                build_initial_model(pruned.dataset, pruned.graph.copy()), training
            ).run(checkpoint=path)

        assert resumed.converged == ref_result.converged
        assert resumed.iteration_count == ref_result.iteration_count
        assert resumed.model.network.stats() == reference.network.stats()
        assert (
            evaluate_model(resumed.model, training).counts
            == evaluate_model(reference, training).counts
        )
