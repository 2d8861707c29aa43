# Convenience targets for the VRL-DRAM reproduction.

.PHONY: install test bench bench-report importtime peakrss loc repro clean

install:
	pip install -e . --no-build-isolation || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-report:
	python scripts/bench_report.py

# The 20 largest cumulative entries (microseconds) of the CLI's import graph.
importtime:
	PYTHONPATH=src python -X importtime -c "import repro.experiments.cli" 2>&1 \
		| sort -t '|' -k 2 -n -r | head -n 20

# Peak RSS of a cold, uncached `vrl-dram fig4 --duration 6` (the child's ru_maxrss);
# fails above 110 MB (87 MB measured, so a trace hoard or trace-length
# temporaries coming back fail it).
peakrss:
	PYTHONPATH=src python -c "import resource, subprocess, sys; \
	subprocess.run([sys.executable, '-m', 'repro.experiments.cli', 'fig4', '--duration', '6', \
	'--no-cache', '--runs-dir', ''], check=True, stdout=subprocess.DEVNULL); \
	peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024; \
	print('fig4 --duration 6 peak RSS: %.1f MB (bound 81 MB: 70.4 MB locally, + 15 %%)' % peak); \
	sys.exit(peak > 81)"

# Lines of Python in each src/repro subpackage, the top-level modules, and the total.
loc:
	@python -c "import pathlib; root = pathlib.Path('src/repro'); \
	count = lambda paths: sum(len(p.read_text().splitlines()) for p in paths); \
	packages = sorted(d for d in root.iterdir() if (d / '__init__.py').is_file()); \
	[print('%7d  %s' % (count(d.rglob('*.py')), d)) for d in packages]; \
	print('%7d  %s' % (count(root.glob('*.py')), root / '*.py')); \
	print('%7d  total' % count(root.rglob('*.py')))"

repro:
	vrl-dram all

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
