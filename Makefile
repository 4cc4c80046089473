# Convenience targets for the reproduction.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test bench experiments validate figures apidocs all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest -x -q

bench:
	python3 bench/run.py

experiments:
	$(PYTHON) -m pytest benchmarks/test_experiments.py

validate:
	$(PYTHON) -m repro validate

figures:
	$(PYTHON) -m repro figures

apidocs:
	$(PYTHON) scripts/gen_api_docs.py

all: test experiments bench validate figures

clean:
	rm -rf .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
