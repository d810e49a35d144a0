# Development targets. The tier-1 gate is `make test`; the library has one
# topology backend, and the parity suites check it against the dict oracle
# in tests/oracles/dict_backend.py.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

# bench_*.py files do not match pytest's default test-file pattern, so the
# benchmark targets enumerate them explicitly.
BENCH_FILES := $(wildcard benchmarks/bench_*.py)

.PHONY: test bench bench-backend \
	bench-bounded bench-analysis bench-sweep bench-fleet bench-service \
	bench-churn bench-check experiments scenario-smoke sweep-smoke \
	fleet-smoke service-smoke

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) -m pytest $(BENCH_FILES) -q -m "not slow"

# Full dict-oracle-vs-array sweep (n up to 1e5); writes BENCH_backend.json.
bench-backend:
	$(PYTHON) benchmarks/bench_backend_scaling.py

# Per-slot vs bulk bounded-degree placement sweep; writes BENCH_bounded.json.
bench-bounded:
	$(PYTHON) benchmarks/bench_bounded_degree.py

# Dict snapshot plane vs CSR view plane sweep; writes BENCH_analysis.json.
bench-analysis:
	$(PYTHON) benchmarks/bench_analysis.py

# Sequential vs 4-worker vs warm-resume replica sweep; writes BENCH_sweep.json.
bench-sweep:
	$(PYTHON) benchmarks/bench_sweep.py

# One worker vs two shared-store fleet workers (claim protocol + reduce);
# merges its row into BENCH_sweep.json at a distinct n.
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

# Checkpoint cadence overhead + restore vs cold rebuild at n=1e5;
# writes BENCH_service.json.
bench-service:
	$(PYTHON) benchmarks/bench_service.py

# Both stepping contracts (fused-round parity, per-event golden digests,
# the exact warm-up, oracle parity of both birth paths), then
# fused window rounds vs per-event stepping at n=1e5 (asserts the 5x
# floor) plus an n=1e6 fused smoke row; writes BENCH_churn.json.
bench-churn:
	$(PYTHON) -m pytest tests/test_fused_rounds.py tests/test_fused_windows.py \
		tests/test_survivor_index.py tests/test_indexless_windows.py \
		tests/test_unrecorded_windows.py \
		tests/test_per_event_golden.py tests/test_exact_warm.py \
		tests/test_util_sampling.py tests/test_backend_parity.py -q
	$(PYTHON) benchmarks/bench_churn.py

# Fresh sweeps compared against the committed BENCH_*.json baselines.
bench-check:
	$(PYTHON) benchmarks/bench_backend_scaling.py --output /tmp/bench_current.json
	$(PYTHON) benchmarks/bench_bounded_degree.py --output /tmp/bench_bounded_current.json
	$(PYTHON) benchmarks/bench_analysis.py --output /tmp/bench_analysis_current.json
	$(PYTHON) benchmarks/bench_sweep.py --output /tmp/bench_sweep_current.json
	$(PYTHON) benchmarks/bench_fleet.py --output /tmp/bench_sweep_current.json
	$(PYTHON) benchmarks/bench_service.py --output /tmp/bench_service_current.json
	$(PYTHON) benchmarks/bench_churn.py --output /tmp/bench_churn_current.json
	$(PYTHON) benchmarks/check_bench_regression.py --current /tmp/bench_current.json \
		--current-bounded /tmp/bench_bounded_current.json \
		--current-analysis /tmp/bench_analysis_current.json \
		--current-sweep /tmp/bench_sweep_current.json \
		--current-service /tmp/bench_service_current.json \
		--current-churn /tmp/bench_churn_current.json

# Every registered protocol through the scenario layer (array backend,
# and the dict oracle where the protocol runs on it), plus the round
# engine's golden flood digests and the registry suite.
scenario-smoke:
	$(PYTHON) -m pytest tests/test_scenario_smoke.py \
		tests/test_flooding_golden.py tests/test_flooding_vectorized.py -q
	$(PYTHON) -m repro.cli --scenario examples/adversarial_gossip.json

# Sweep plane: grid/runner/store tests, the threshold-churn scenario,
# and CLI round trips (cold parallel run, then a fully-cached re-run;
# the --sweep re-run must report `executed 0`).
sweep-smoke:
	$(PYTHON) -m pytest tests/test_sweep_spec.py tests/test_sweep_runner.py \
		tests/test_models_threshold.py -q
	$(PYTHON) -m repro.cli --scenario examples/threshold_streaming.json
	rm -rf /tmp/repro-sweep-store /tmp/repro-sweep-file-store
	$(PYTHON) -m repro.cli EXP-01 --jobs 2 --store /tmp/repro-sweep-store
	$(PYTHON) -m repro.cli EXP-01 --jobs 2 --store /tmp/repro-sweep-store
	$(PYTHON) -m repro.cli --sweep examples/fleet_sweep.json --jobs 2 \
		--store /tmp/repro-sweep-file-store > /dev/null
	$(PYTHON) -m repro.cli --sweep examples/fleet_sweep.json --jobs 2 \
		--store /tmp/repro-sweep-file-store 2>&1 >/dev/null | grep 'executed 0,'

# Fleet plane: store/fleet/CLI suites, then a real multi-terminal round
# trip against one shared store — two concurrent workers drain the
# example sweep, the reducer writes the artifact, and a sequential run
# on a second store must produce the identical core digest.
fleet-smoke:
	$(PYTHON) -m pytest tests/test_sweep_store.py tests/test_sweep_fleet.py \
		tests/test_cli_sweep.py -q
	rm -rf /tmp/repro-fleet-store /tmp/repro-fleet-solo
	$(PYTHON) -m repro.cli sweep worker examples/fleet_sweep.json \
		--store /tmp/repro-fleet-store --wait 30 & \
	$(PYTHON) -m repro.cli sweep worker examples/fleet_sweep.json \
		--store /tmp/repro-fleet-store --wait 30 & \
	wait
	$(PYTHON) -m repro.cli sweep reduce examples/fleet_sweep.json \
		--store /tmp/repro-fleet-store --timeout 0 > /tmp/repro-fleet-a.json
	$(PYTHON) -m repro.cli sweep run examples/fleet_sweep.json \
		--store /tmp/repro-fleet-solo --workers 1 > /tmp/repro-fleet-b.json
	$(PYTHON) -c "import json; \
		a = json.load(open('/tmp/repro-fleet-a.json')); \
		b = json.load(open('/tmp/repro-fleet-b.json')); \
		assert a['digest'] == b['digest'], 'fleet digest != sequential'; \
		print('fleet-smoke: artifact digests identical:', a['digest'])"

# Service plane: checkpoint/trace/metrics suites, a trace-replay
# scenario, and a CLI kill-and-resume round trip (run with checkpoints,
# then restore the latest one and finish the horizon).
service-smoke:
	$(PYTHON) -m pytest tests/test_service_checkpoint.py \
		tests/test_service_trace.py tests/test_service_metrics.py \
		tests/test_examples_roundtrip.py -q
	$(PYTHON) -m repro.cli --scenario examples/trace_replay.json
	rm -rf /tmp/repro-service-ckpt && mkdir -p /tmp/repro-service-ckpt
	cd /tmp/repro-service-ckpt && PYTHONPATH=$(CURDIR)/src $(PYTHON) \
		-m repro.cli --scenario $(CURDIR)/examples/service_checkpoint.json
	cd /tmp/repro-service-ckpt && PYTHONPATH=$(CURDIR)/src $(PYTHON) \
		-m repro.cli --restore /tmp/repro-service-ckpt/checkpoints

experiments:
	$(PYTHON) -m repro.cli --all
