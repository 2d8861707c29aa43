# Convenience targets for the VRL-DRAM reproduction.

.PHONY: install test bench bench-report importtime peakrss loc lanes repro clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/ --durations=10

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	python scripts/bench_report.py

# The 20 largest cumulative entries (microseconds) of the CLI's import graph.
importtime:
	PYTHONPATH=src python -X importtime -c "import repro.experiments.cli" 2>&1 \
		| sort -t '|' -k 2 -n -r | head -n 20

# Peak RSS of cold, uncached verbs, each in its own child (its ru_maxrss).
# `fig4 --duration 6` fails above 65 MB (56.5 MB locally, + 15 %), so a
# trace hoard, trace-length temporaries, or a streamed trace holding a
# trace-length int64 cycle array again (~70 MB) fail it.  `fig5`,
# the cheapest verb that solves circuits, fails above 47 MB (40.6 MB
# locally, + 15 %), so a circuit solve loading the `scipy.linalg`
# package again (59 MB) fails it.
PEAKRSS = PYTHONPATH=src python -c "import resource, subprocess, sys; \
	verb, bound, local = sys.argv[1].split(), float(sys.argv[2]), sys.argv[3]; \
	subprocess.run([sys.executable, '-m', 'repro.experiments.cli', *verb, \
	'--no-cache', '--runs-dir', ''], check=True, stdout=subprocess.DEVNULL); \
	peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024; \
	print('%s peak RSS: %.1f MB (bound %g MB: %s MB locally, + 15 %%)' % (sys.argv[1], peak, bound, local)); \
	sys.exit(peak > bound)"

peakrss:
	$(PEAKRSS) 'fig4 --duration 6' 65 56.5
	$(PEAKRSS) fig5 47 40.6

# Lines of Python in each src/repro subpackage, the top-level modules, and the total.
loc:
	@python -c "import pathlib; root = pathlib.Path('src/repro'); \
	count = lambda paths: sum(len(p.read_text().splitlines()) for p in paths); \
	packages = sorted(d for d in root.iterdir() if (d / '__init__.py').is_file()); \
	[print('%7d  %s' % (count(d.rglob('*.py')), d)) for d in packages]; \
	print('%7d  %s' % (count(root.glob('*.py')), root / '*.py')); \
	print('%7d  total' % count(root.rglob('*.py')))"

# SHA-256 of every circuit lane the circuit-anchors verbs compute, and
# their summed SolverStats: equal output at two commits means the same
# circuits, bit for bit (SEED=2018 by default).
SEED ?= 2018
lanes:
	PYTHONPATH=src python scripts/circuit_lanes.py --seed $(SEED)

repro:
	vrl-dram all

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
