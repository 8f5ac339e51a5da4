# Convenience targets for the cddpd tree.  Everything here is a thin
# wrapper over dune; CI and humans should get identical behaviour.
#
#   make build        compile everything
#   make check        tier-1 gate: build + tests + lint
#   make lint         typed cddpd-lint over lib/ bin/ bench/ tools/,
#                     ratcheted against lint-baseline.json
#   make lint-update-baseline
#                     regenerate lint-baseline.json after burning down
#                     or adding audited waivers
#   make bench-smoke  quick perf sanity
#   make bench-digests
#                     bench-smoke into _bench_digests/, then fail if any
#                     digest differs from the tracked BENCH_*.json
#   make serve-smoke  replay a canned trace through `cddpd serve --once`
#                     and assert the cddpd-serve/1 JSON status, then check
#                     that an invalid statement is skipped on stdin and
#                     rejected with exit 1 on --input

DUNE ?= dune
JOBS ?=

.PHONY: all build check test lint lint-update-baseline bench-smoke bench-digests bench serve-smoke clean

all: build

build:
	$(DUNE) build

# Tier-1 gate: full build plus the whole test suite, plus lint.
check:
	$(DUNE) build
	$(DUNE) runtest
	$(DUNE) build @lint

test: check

# Static analysis (see docs/LINTING.md).  The @lint alias type-checks
# the tree first so every module has a fresh .cmt artifact, then runs
# the typed engine and enforces the waived-finding ratchet against
# lint-baseline.json.
lint:
	$(DUNE) build @lint

# After fixing findings (baseline shrinks) or adding audited waivers
# (baseline grows — justify it in the PR), refresh the committed
# baseline.  CI fails if the checked-in file lags behind reality in the
# growth direction.
lint-update-baseline:
	$(DUNE) build @check tools/lint/cddpd_lint.exe
	$(DUNE) exec tools/lint/cddpd_lint.exe -- --root . --write-baseline lint-baseline.json

# Quick perf sanity: every tracked suite at --quick scale, each writing
# its BENCH_<suite>.json into the current directory (BENCH_micro.json is
# untracked).  Pass JOBS=1 to force the sequential path.  The suites
# carry their own hard gates: every serve window must match the reference
# oracle (lib/reference), and stable-phase windows / ingest throughput
# must hit their reduction floors.
# micro goes last: see the suite table in bench/main.ml.
BENCH_SUITES = solvers experiments configspace serve ingest micro

bench-smoke:
	$(DUNE) exec bench/main.exe -- --quick $(if $(JOBS),--jobs $(JOBS)) $(BENCH_SUITES)

# bench-smoke without touching the tracked files: the suites write into
# _bench_digests/, and every "digest" / "window_digest" field must equal
# the tracked BENCH_*.json's, in order (adjacent repeats collapse, so an
# experiments arm skipped for lack of cores does not count as a change).
bench-digests:
	$(DUNE) exec bench/main.exe -- --quick $(if $(JOBS),--jobs $(JOBS)) \
	  --out-dir _bench_digests $(BENCH_SUITES)
	@for f in BENCH_*.json; do \
	  grep -oE '"(window_)?digest":"[^"]+"' $$f | uniq > _bench_digests/$$f.want; \
	  grep -oE '"(window_)?digest":"[^"]+"' _bench_digests/$$f | uniq > _bench_digests/$$f.got; \
	  diff _bench_digests/$$f.want _bench_digests/$$f.got \
	    || { echo "bench-digests: $$f differs from the tracked digests"; exit 1; }; \
	done
	@echo "bench-digests: OK, every digest matches the tracked BENCH files"

bench:
	$(DUNE) exec bench/main.exe -- $(if $(JOBS),--jobs $(JOBS)) all

# End-to-end smoke of the online advisor (docs/SERVE.md): generate a
# short drifting trace, serve it once, and assert the machine-readable
# status against the cddpd-serve/1 golden schema — every key, plus the
# invariant that the drifting trace actually triggered the loop.
serve-smoke:
	$(DUNE) build bin/cddpd.exe
	$(DUNE) exec bin/cddpd.exe -- generate --workload W1 --scale 0.2 --value-range 1000 -o _serve_smoke_trace.sql
	$(DUNE) exec bin/cddpd.exe -- serve --once --input _serve_smoke_trace.sql \
	  --rows 5000 --value-range 1000 --window 100 $(if $(JOBS),--jobs $(JOBS)) \
	  --status > _serve_smoke_status.json
	@grep -q '"schema":"cddpd-serve/1"' _serve_smoke_status.json
	@for key in regime windows statements residual_statements drift_events \
	  reoptimizations deployments rejections rollbacks exec_logical_io \
	  trans_logical_io final_design; do \
	    grep -q "\"$$key\":" _serve_smoke_status.json \
	      || { echo "serve-smoke: missing key $$key"; exit 1; }; \
	  done
	@grep -q '"drift_events":0' _serve_smoke_status.json \
	  && { echo "serve-smoke: expected drift on the canned trace"; exit 1; } || true
	@grep -q '"deployments":0' _serve_smoke_status.json \
	  && { echo "serve-smoke: expected at least one deployment"; exit 1; } || true
	@echo "serve-smoke: OK $$(cat _serve_smoke_status.json)"
	@rm -f _serve_smoke_trace.sql _serve_smoke_status.json
	@# Negative case: a statement that parses but names an unknown column
	@# is skipped on stdin (exit 0) and aborts --input naming the line
	@# (exit 1, never an uncaught exception).
	@echo 'SELECT * FROM t WHERE zz = 1' > _serve_smoke_bad.sql
	@$(DUNE) exec bin/cddpd.exe -- serve --rows 1000 --value-range 1000 \
	  < _serve_smoke_bad.sql > _serve_smoke_bad.out 2>&1 \
	  || { echo "serve-smoke: stdin serve must skip an invalid statement"; exit 1; }
	@grep -q 'skipping statement' _serve_smoke_bad.out \
	  || { echo "serve-smoke: stdin serve did not report the skipped statement"; exit 1; }
	@code=0; $(DUNE) exec bin/cddpd.exe -- serve --once --input _serve_smoke_bad.sql \
	  --rows 1000 --value-range 1000 > _serve_smoke_bad.out 2>&1 || code=$$?; \
	  [ $$code -eq 1 ] || { echo "serve-smoke: --input on an invalid statement exited $$code, expected 1"; exit 1; }
	@grep -q 'line 1' _serve_smoke_bad.out \
	  || { echo "serve-smoke: --input did not name the invalid line"; exit 1; }
	@echo "serve-smoke: invalid statement skipped on stdin, rejected with exit 1 on --input"
	@rm -f _serve_smoke_bad.sql _serve_smoke_bad.out

clean:
	$(DUNE) clean
	rm -f BENCH_micro.json BENCH_obs.json _serve_smoke_trace.sql _serve_smoke_status.json \
	  _serve_smoke_bad.sql _serve_smoke_bad.out
	rm -rf _bench_digests
