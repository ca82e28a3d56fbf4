# Convenience targets; `make check` is the full local gate: build, test suite, lint over the examples, and the eight `--smoke` benches, whose gates are listed in the bench table of bench/main.ml and recorded in each BENCH_*.json.

.PHONY: all build test lint fuzz coverage bench-smoke bench-parallel-smoke bench-solver-smoke certify-smoke bench-scale-smoke bench-arena-smoke bench-serve-smoke bench-fault-smoke check clean

all: build

build:
	dune build

test: build
	dune runtest

lint: build
	@for f in examples/configs/*.cfg; do \
	  echo "lint $$f"; \
	  dune exec bin/minesweeper_cli.exe -- lint $$f || exit 1; \
	done

# Long-budget differential fuzzing: QCheck mutations of generated
# enterprise/fattree configurations, verified with --certify and
# cross-checked against the concrete simulator.  `dune runtest` runs
# the same property with a small bounded sample; this raises it.
fuzz: build
	MS_FUZZ_COUNT=$${MS_FUZZ_COUNT:-60} dune exec test/test_fuzz.exe

# Line/branch coverage of the test suite via bisect_ppx.  The library
# stanzas carry `(instrumentation (backend bisect_ppx))`, which is
# inert unless dune is invoked with --instrument-with, so the target
# degrades honestly to a skip message on containers without the
# package installed (this repo's CI image does not ship it).
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  mkdir -p _coverage && rm -f _coverage/*.coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect dune runtest --instrument-with bisect_ppx --force && \
	  bisect-ppx-report html --coverage-path _coverage && \
	  bisect-ppx-report summary --coverage-path _coverage; \
	else \
	  echo "coverage: bisect_ppx is not installed; skipping (the dune"; \
	  echo "instrumentation stanzas are inert without --instrument-with,"; \
	  echo "so no build configuration changes are needed to enable it"; \
	  echo "later: opam install bisect_ppx, then re-run make coverage)"; \
	fi

bench-smoke: build
	dune exec bench/main.exe -- batch --smoke

bench-parallel-smoke: build
	dune exec bench/main.exe -- parallel --smoke

bench-solver-smoke: build
	dune exec bench/main.exe -- solver --smoke

certify-smoke: build
	dune exec bench/main.exe -- certify --smoke

bench-scale-smoke: build
	dune exec bench/main.exe -- scale --smoke

bench-arena-smoke: build
	dune exec bench/main.exe -- arena --smoke

bench-serve-smoke: build
	dune exec bench/main.exe -- serve --smoke

bench-fault-smoke: build
	dune exec bench/main.exe -- fault --smoke

check: build test lint bench-smoke bench-parallel-smoke bench-solver-smoke certify-smoke bench-scale-smoke bench-arena-smoke bench-serve-smoke bench-fault-smoke

clean:
	dune clean
