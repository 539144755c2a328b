# Convenience targets for the DICER reproduction.

.PHONY: all install lint test fastmath chaos conformance coverage golden bench bench-quick bench-json bench-full bench-fast bench-fast-quick queue-smoke serve serve-smoke examples clean

.DEFAULT_GOAL := all

all: lint test chaos serve conformance queue-smoke serve-smoke bench-fast-quick

install:
	pip install -e .

lint:             ## ruff, if installed (config in .ruff.toml); skipped otherwise
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ benchmarks/ examples/; \
	else \
		echo "lint: ruff not installed, skipping (pip install ruff)"; \
	fi

test:
	pytest tests/

fastmath:         ## fast_math-marked suites (catalog-wide fast-vs-exact sweeps; slow)
	pytest tests/ -m fast_math

chaos:            ## chaos-marked fault-injection suites (worker crash/hang fuzz; fixed seeds)
	pytest tests/ -m chaos

conformance:      ## controller conformance: differential fuzz + golden replay + fault injection
	pytest tests/valid/ -q
	python -m repro.valid.record --check

golden:           ## regenerate tests/golden/ after an intentional behaviour change
	python -m repro.valid.record

coverage:         ## pytest-cov with a line floor on the controller core; skipped if not installed
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		pytest tests/ --cov=repro.core --cov-report=term-missing \
			--cov-fail-under=90; \
	else \
		echo "coverage: pytest-cov not installed, skipping (pip install pytest-cov)"; \
	fi

bench:            ## quick-mode campaign (truncated populations)
	pytest benchmarks/ --benchmark-only

bench-quick:      ## quick-mode campaign + autosave + >25% regression gate + perf artefact
	PYTHONPATH=src pytest benchmarks/ --benchmark-only --benchmark-autosave
	python benchmarks/compare_saves.py --threshold 0.25 \
		--bench-json benchmarks/results/BENCH_headline.json

bench-json:       ## refresh + report benchmarks/results/BENCH_headline.json only
	PYTHONPATH=src pytest benchmarks/bench_headline.py --benchmark-only
	python benchmarks/compare_saves.py \
		--bench-json benchmarks/results/BENCH_headline.json

bench-full:       ## paper-scale campaign (3481 pairs, 120-workload grid)
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

bench-fast:       ## fast-math speedup gate: full 3481-pair grid, exact vs fast, floor 5x
	PYTHONPATH=src python benchmarks/bench_fast.py

bench-fast-quick: ## fast-math speedup gate on the truncated population (floor 3x)
	PYTHONPATH=src python benchmarks/bench_fast.py --quick

queue-smoke:      ## serial/threads/processes pools + two-worker shared queue, digest-checked against serial
	PYTHONPATH=src python benchmarks/queue_smoke.py

serve:            ## serve-marked control-plane integration suites (daemon, API, chaos determinism)
	pytest tests/ -m serve

serve-smoke:      ## seeded 1200-event churn + node chaos + SIGTERM kill/restart, digest-checked
	PYTHONPATH=src python benchmarks/serve_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf benchmarks/results benchmarks/.benchmarks .benchmarks .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
