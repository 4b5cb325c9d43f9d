"""The ``REPRO_*_NUMPY_THRESHOLD`` switches are re-read live.

Environment changes made *after* import must be honored (they once were
read only at import time, which made setting them afterwards silently
dead).
"""

from __future__ import annotations

import random

import pytest


class TestThresholdEnvReRead:
    """``REPRO_*_NUMPY_THRESHOLD`` changes after import must take effect.

    Regression tests for the snapshot-compare pattern: each module keeps
    the env string it last parsed and re-parses on change, so both
    post-import ``setenv`` *and* direct ``_NUMPY_THRESHOLD`` monkeypatching
    (used throughout the test-suite) keep working.
    """

    @pytest.mark.parametrize(
        "mod_path, env",
        [
            ("repro.graph.wd", "REPRO_WD_NUMPY_THRESHOLD"),
            ("repro.graph.kernel", "REPRO_KERNEL_NUMPY_THRESHOLD"),
            ("repro.retiming.incremental", "REPRO_INC_NUMPY_THRESHOLD"),
        ],
    )
    def test_post_import_setenv_honored(self, monkeypatch, mod_path, env):
        import importlib

        mod = importlib.import_module(mod_path)
        default = mod._current_threshold()
        monkeypatch.setenv(env, "3")
        assert mod._current_threshold() == 3
        monkeypatch.setenv(env, "not-a-number")  # unparsable -> default
        assert mod._current_threshold() == default
        monkeypatch.delenv(env)
        assert mod._current_threshold() == default
        # With the env untouched, direct monkeypatching still wins.
        monkeypatch.setattr(mod, "_NUMPY_THRESHOLD", 12345)
        assert mod._current_threshold() == 12345

    def test_solver_backend_follows_env(self, monkeypatch):
        """End to end: the env var set *after* import selects the
        incremental solver's relaxation backend."""
        from repro.graph.generators import random_unit_time_dfg
        from repro.graph.wd import wd_matrices
        from repro.retiming.incremental import IncrementalFeasibility

        g = random_unit_time_dfg(
            random.Random(1), num_nodes=12, extra_edges=12, max_delay=3
        )
        W, D = wd_matrices(g)
        monkeypatch.setenv("REPRO_INC_NUMPY_THRESHOLD", "0")
        assert IncrementalFeasibility(g, W, D)._use_numpy
        monkeypatch.setenv("REPRO_INC_NUMPY_THRESHOLD", "1000000")
        assert not IncrementalFeasibility(g, W, D)._use_numpy
