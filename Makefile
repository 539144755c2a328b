# Convenience targets for the DICER reproduction.

.PHONY: all install lint test fastmath chaos conformance coverage golden bench bench-quick bench-full bench-fast bench-fast-quick queue-smoke serve serve-smoke examples clean

.DEFAULT_GOAL := all

# Every recipe imports the package from src/, so a fresh checkout needs no
# `pip install -e .` first; an inherited PYTHONPATH stays after it.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

all: lint test fastmath chaos serve conformance queue-smoke serve-smoke bench-fast-quick

install:
	pip install -e .

lint:             ## ruff, if installed (config in .ruff.toml); else the stdlib unused-import check
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/ tests/ benchmarks/ examples/ tools/; \
	else \
		echo "lint: ruff not installed, skipping ruff (pip install ruff); unused imports only:"; \
		python tools/unused_imports.py src/ tests/ benchmarks/ examples/ tools/ && echo "lint: unused imports OK"; \
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

bench-quick:      ## quick-mode campaign + autosave + >25% regression gate
	pytest benchmarks/ --benchmark-only --benchmark-autosave
	python benchmarks/compare_saves.py --threshold 0.25

bench-full:       ## paper-scale campaign (3481 pairs, 120-workload grid); fails if a committed artefact drifts
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only
	git diff --exit-code -- benchmarks/results_full

bench-fast:       ## fast-math speedup gate: full 3481-pair grid, exact vs fast, floor 9.6x
	python benchmarks/bench_fast.py

bench-fast-quick: ## fast-math speedup gate on the truncated population (floor 4.9x)
	python benchmarks/bench_fast.py --quick

queue-smoke:      ## serial/processes stores + two-worker shared queue, digest-checked against serial
	python benchmarks/queue_smoke.py

serve:            ## serve-marked control-plane integration suites (daemon, API, chaos determinism)
	pytest tests/ -m serve

serve-smoke:      ## seeded 1200-event churn + node chaos + SIGTERM kill/restart, digest-checked
	python benchmarks/serve_smoke.py

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	rm -rf benchmarks/results benchmarks/.benchmarks .benchmarks .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
