"""Import-cost guard: the library imports without SciPy or networkx.

Every sweep cell, fleet worker, pool worker and CLI call starts a fresh
interpreter and imports the library, so import time is paid once per
process.  SciPy (spectral analysis, theory predictions) and networkx
(static baselines, ``Snapshot.to_networkx``) are imported inside the
functions that use them, never at module level.  These tests pin that:

* importing the entry-point packages loads neither package;
* with both made unimportable, a session with observers and a flood,
  and a sweep cell, still run — only the deferred call sites fail;
* the deferred call sites still work when the packages are present.

The first two run in a fresh interpreter, since this test process has
long since imported SciPy and networkx through other tests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "repro",
    "repro.api",
    "repro.cli",
    "repro.scenario",
    "repro.sweep",
    "repro.experiments",
)

#: Makes every ``scipy*`` and ``networkx*`` import raise, whether or not
#: the packages are installed.
BLOCKER = """
import sys

class _Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "networkx"):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, _Blocked())
"""


def _run_fresh(code: str, blocked: bool = False) -> dict:
    """Run *code* in a new interpreter; return the JSON of its last line.

    With *blocked*, SciPy and networkx are unimportable in it.
    """
    code = textwrap.dedent(code)
    if blocked:
        code = BLOCKER + code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestNothingLoaded:
    def test_entry_points_load_numpy_only(self):
        loaded = _run_fresh(
            f"""
            import json, sys
            for name in {ENTRY_POINTS!r}:
                __import__(name)
            print(json.dumps(sorted(sys.modules)))
            """
        )
        optional = [
            m for m in loaded if m.split(".")[0] in ("scipy", "networkx")
        ]
        assert optional == []
        assert "numpy" in loaded


class TestBlockedDependencies:
    def test_session_sweep_cell_and_deferred_failure(self):
        out = _run_fresh(
            """
            import json
            from repro.analysis.spectral import normalized_laplacian_lambda2
            from repro.scenario import ScenarioSpec, Simulation
            from repro.sweep import SweepSpec
            from repro.sweep.runner import cell_tasks, execute_cell

            spec = ScenarioSpec(
                churn="streaming", policy="regen", n=200, d=4, horizon=20,
                protocol="discrete", seed=3,
            )
            sim = Simulation(spec, observers=[
                {"name": "degrees", "params": {"every": 10}},
                {"name": "isolated", "params": {"every": 10}},
                {"name": "expansion", "params": {
                    "every": 10, "seed": 1, "max_size": 8,
                    "num_random_sets": 5, "greedy_restarts": 1,
                }},
            ])
            sim.run()
            flood = sim.flood()
            results = sim.results()

            sweep = SweepSpec(base=spec, replicas=1, measure="flood_stats")
            (task,) = cell_tasks(sweep, "array")
            _, value, error, _ = execute_cell(task)

            try:
                normalized_laplacian_lambda2(sim.snapshot())
                spectral = "ran"
            except ImportError as exc:
                spectral = type(exc).__name__

            print(json.dumps({
                "completed": flood.completed,
                "windows": [len(results[name]["series"])
                            for name in ("degrees", "isolated", "expansion")],
                "cell_error": error,
                "cell_completed": value["completed"] if value else None,
                "spectral": spectral,
            }))
            """,
            blocked=True,
        )
        assert out["completed"]
        assert out["windows"] == [2, 2, 2]
        assert out["cell_error"] is None
        assert out["cell_completed"]
        assert out["spectral"] == "ModuleNotFoundError"


class TestDeferredCallSites:
    """The deferred imports still resolve in-process.

    Both λ₂ solver branches (``test_analysis_misc.py``, and the parity
    suite in ``test_analysis_csr.py``), the networkx baselines
    (``test_models_static.py``) and ``Snapshot.to_networkx``
    (``test_core_snapshot.py``) are exercised where they are tested;
    this pins the one value the ``scipy.integrate`` call computes.
    """

    def test_isolated_prediction_value_unchanged(self):
        from repro.theory.isolated import isolated_fraction_prediction_streaming

        assert isolated_fraction_prediction_streaming(3) == 0.026130971201316203
