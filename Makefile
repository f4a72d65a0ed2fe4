# Convenience targets; everything is plain dune underneath.

.PHONY: all build test check bench bench-json examples reproduce report selftest clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full gate: build everything, run every suite, then smoke-test the
# parallel engine's determinism contract end to end — table4 at 2
# domains must be byte-identical to the sequential run — and the
# artifact cache: a warm rerun must replay every trial from disk (zero
# computes, counted via the store's stats log) with identical bytes.
# The resume smoke: a checkpointed `popan churn` and `popan table4
# --incremental`, rerun after their whole-trial cache objects are
# deleted, must resume from the checkpoints' points (a nonzero hit
# count in `popan cache stats`) and print the same bytes.
# Finally the observability smoke: a traced table4 run must leave the
# table bytes untouched and emit trace + metrics JSON that `popan obs
# validate` accepts. The allocation gate re-runs the arena regression
# explicitly: a no-split arena insert must allocate zero minor words,
# a generator-fed uniform bulk build O(1) of them, so must the served
# Z-ordered build (each also over a clustered input whose groups take
# the bulk kernel's four-level step), and a response frame written
# through the wire's reused scratch none. The sweep alloc
# gate runs `popan sweep -j 2` over 393,216 uniform points with the GC
# summary on (OCAMLRUNPARAM=v=0x400) and requires fewer minor words
# than points: the sampler fills the arena's columns without boxing.
# The bulk smoke, one stage at 2^22 points under max_depth 42, some of
# them in one cell below depth 36, so the build reloads its keys at
# levels 15 and 30: the heap in-place build must complete with no
# fallback, reach below depth 36 and pass the invariant check; the
# mmap-backed in-place build must equal it entry for entry
# (Pr_arena.diff_state: node ids, chains, columns and counters); and
# the Z-ordered build of the same points must be Z-ordered, pass the
# invariant check and freeze to the in-place build's encoded bytes. The measure smoke: `popan measure`
# must refuse a --max-depth outside [0, 42] (the arena's 2^-42 grid)
# with exit status 1 and a one-line diagnostic, and at --max-depth 42 must build exact
# duplicates at capacity 1 down to height 42. Finally the churn smoke:
# a 10^6-operation insert/delete/update
# stream whose arena must equal a fresh rebuild of the survivors; a
# snapshot of the start arena that replays the stream in 256-op slices,
# as the serving layer's spare catches up with the current epoch, must
# equal the churned arena entry for entry (Pr_arena.diff_state) and
# freeze to its bytes; and trial fan-out must be byte-identical at
# jobs 1/2/4. The serve smoke: spawn
# `popan serve` at jobs 1/2/4, drive two framed 10k-query mixed batches
# through the wire protocol while the churn writer publishes epochs,
# verify every response byte-for-byte against an in-process sequential
# oracle, serve two sequential clients on one socket, and assert a
# truncated frame is refused; a Stats sent between the two batches must read the
# oracle's epoch and size. The query alloc smokes: count-in-box on the
# integer-descent path must allocate zero minor words per query,
# reading a full reference k-NN collector's pruning bound
# (Neighbors.worst, read at every node Pr_quadtree.k_nearest visits)
# none per read, the arena's k-NN at most 16k + 64 minor words per
# query (its flat collector allocates nothing per candidate), and
# decoding a 1,024-answer mixed response at most 5 words per answer
# point plus 24 per answer (the reader takes a word at a time and point
# arrays whole). The frame fuzzer then runs a
# longer budget than `dune runtest` gives it: mutated request and
# response frames, re-framed with valid checksums, must decode to a
# value or an error and be served or refused, never raise. The
# obs-top smoke: start `popan serve` on a Unix socket with full
# telemetry under churn, self-warm two batches, scrape it once with
# `popan obs top --prom --quit` (the quit also proves a client can shut
# the accept loop down), and require the exposition to pass the
# Prometheus line-grammar validator and to carry the publish counters'
# replayed operations (popan_serve_publish_replayed). The pruning gate is a count in
# `dune runtest` (test_serve's pruning group): at 90% selectivity over
# 2^16 uniform points, pruned count_in_box visits at most a fifth of the
# nodes the unpruned walk (Pr_quadtree's box descent over the frozen
# arena) enters.
check: build test
	@if dune exec --no-build test/test_alloc.exe -- test arena 0 >/dev/null 2>&1; then \
	  echo "alloc smoke: no-split arena insert allocates zero minor words"; \
	else \
	  echo "alloc smoke FAILED: arena insert hot path allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 0; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test arena 3 >/dev/null 2>&1; then \
	  echo "alloc smoke: no-merge arena delete allocates zero minor words"; \
	else \
	  echo "alloc smoke FAILED: arena delete hot path allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 3; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test arena 4 >/dev/null 2>&1; then \
	  echo "alloc smoke: slot-reusing arena reinsert allocates zero minor words"; \
	else \
	  echo "alloc smoke FAILED: arena reinsert after delete allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 4; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test arena 6 >/dev/null 2>&1; then \
	  echo "alloc smoke: integer-descent count/nearest allocate zero minor words"; \
	else \
	  echo "alloc smoke FAILED: query integer-descent path allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 6; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test knn 0 >/dev/null 2>&1; then \
	  echo "alloc smoke: a full k-NN collector's pruning bound reads with zero minor words"; \
	else \
	  echo "alloc smoke FAILED: Neighbors.worst allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test knn 0; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test knn 1 >/dev/null 2>&1; then \
	  echo "alloc smoke: arena k_nearest allocates at most 16k + 64 minor words per query"; \
	else \
	  echo "alloc smoke FAILED: the arena k-NN collector allocates per candidate"; \
	  dune exec --no-build test/test_alloc.exe -- test knn 1; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test arena 7 >/dev/null 2>&1; then \
	  echo "alloc smoke: generator-fed uniform bulk build allocates O(1) minor words"; \
	else \
	  echo "alloc smoke FAILED: the uniform column fill allocates per point"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 7; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test arena 8 >/dev/null 2>&1; then \
	  echo "alloc smoke: the served Z-ordered bulk build allocates O(1) minor words"; \
	else \
	  echo "alloc smoke FAILED: the Z-ordered build allocates per point"; \
	  dune exec --no-build test/test_alloc.exe -- test arena 8; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test wire 0 >/dev/null 2>&1; then \
	  echo "alloc smoke: a warm response frame write allocates zero minor words"; \
	else \
	  echo "alloc smoke FAILED: the wire frame writer allocates"; \
	  dune exec --no-build test/test_alloc.exe -- test wire 0; exit 1; \
	fi
	@if dune exec --no-build test/test_alloc.exe -- test wire 1 >/dev/null 2>&1; then \
	  echo "alloc smoke: a mixed response decodes within 5 minor words per point + 24 per answer"; \
	else \
	  echo "alloc smoke FAILED: the wire reader allocates per byte or per float"; \
	  dune exec --no-build test/test_alloc.exe -- test wire 1; exit 1; \
	fi
	@if dune exec --no-build test/test_fuzz.exe -- --budget 4000 >/dev/null 2>&1; then \
	  echo "fuzz smoke: 4000 mutations per captured frame decode or fail, none raises"; \
	else \
	  echo "fuzz smoke FAILED: a mutated frame raised or was lost"; \
	  dune exec --no-build test/test_fuzz.exe -- --budget 4000; exit 1; \
	fi
	@words=$$(OCAMLRUNPARAM=v=0x400 _build/default/bin/popan.exe sweep --no-cache \
	    -j 2 --model uniform -m 8 -t 2 --sizes 65536,131072 2>&1 >/dev/null \
	  | sed -n 's/^minor_words: *\([0-9]*\).*/\1/p'); \
	if [ -n "$$words" ] && [ "$$words" -lt 393216 ]; then \
	  echo "sweep alloc gate: $$words minor words for 393216 points (< 1 per point)"; \
	else \
	  echo "sweep alloc gate FAILED: minor words '$$words' for 393216 points (need < 1 per point)"; \
	  exit 1; \
	fi
	@tmp=$$(mktemp -d); \
	dune exec --no-build bin/popan.exe -- table4 -j 1 > $$tmp/seq.txt; \
	dune exec --no-build bin/popan.exe -- table4 -j 2 > $$tmp/par.txt; \
	if cmp -s $$tmp/seq.txt $$tmp/par.txt; then \
	  echo "determinism smoke: table4 -j 2 byte-identical to -j 1"; \
	else \
	  echo "determinism smoke FAILED: table4 -j 2 differs from -j 1"; \
	  diff $$tmp/seq.txt $$tmp/par.txt; rm -rf $$tmp; exit 1; \
	fi; \
	dune exec --no-build bin/popan.exe -- table4 --cache $$tmp/cache > $$tmp/cold.txt; \
	dune exec --no-build bin/popan.exe -- table4 --cache $$tmp/cache > $$tmp/warm.txt; \
	if ! cmp -s $$tmp/cold.txt $$tmp/warm.txt || ! cmp -s $$tmp/cold.txt $$tmp/seq.txt; then \
	  echo "cache smoke FAILED: cached table4 output differs"; rm -rf $$tmp; exit 1; \
	fi; \
	dune exec --no-build bin/popan.exe -- cache stats --cache $$tmp/cache > $$tmp/stats.txt; \
	counts=$$(sed -n 's/^lifetime: *\([0-9]*\) hits, \([0-9]*\) misses, \([0-9]*\) computes.*/\1 \3/p' $$tmp/stats.txt); \
	set -- $$counts; \
	if [ -n "$$1" ] && [ "$$1" = "$$2" ] && [ "$$1" -gt 0 ]; then \
	  echo "cache smoke: warm rerun replayed $$1 trials with zero computes"; \
	else \
	  echo "cache smoke FAILED: hits/computes mismatch:"; cat $$tmp/stats.txt; \
	  rm -rf $$tmp; exit 1; \
	fi; \
	dune exec --no-build bin/popan.exe -- table4 -j 2 \
	  --trace $$tmp/trace.json --metrics-out $$tmp/metrics.json \
	  > $$tmp/traced.txt 2>/dev/null; \
	if ! cmp -s $$tmp/traced.txt $$tmp/seq.txt; then \
	  echo "obs smoke FAILED: traced table4 output differs"; \
	  rm -rf $$tmp; exit 1; \
	fi; \
	if dune exec --no-build bin/popan.exe -- obs validate $$tmp/trace.json \
	   && dune exec --no-build bin/popan.exe -- obs validate $$tmp/metrics.json; then \
	  echo "obs smoke: traced table4 unchanged; trace + metrics JSON validate"; \
	  rm -rf $$tmp; \
	else \
	  echo "obs smoke FAILED: emitted trace/metrics JSON did not validate"; \
	  rm -rf $$tmp; exit 1; \
	fi
	@tmp=$$(mktemp -d); \
	resume_smoke() { \
	  kind=$$1; shift; \
	  dune exec --no-build bin/popan.exe -- "$$@" --cache $$tmp/$$kind > $$tmp/$$kind.cold; \
	  find $$tmp/$$kind -name "*.$$kind" -delete; \
	  dune exec --no-build bin/popan.exe -- "$$@" --cache $$tmp/$$kind > $$tmp/$$kind.resumed; \
	  hits=$$(dune exec --no-build bin/popan.exe -- cache stats --cache $$tmp/$$kind \
	    | sed -n 's/^lifetime: *\([0-9]*\) hits.*/\1/p'); \
	  if cmp -s $$tmp/$$kind.cold $$tmp/$$kind.resumed \
	     && [ -n "$$hits" ] && [ "$$hits" -gt 0 ]; then \
	    echo "resume smoke: popan $$1 resumed from checkpoints ($$hits hits), stdout identical"; \
	  else \
	    echo "resume smoke FAILED: popan $$* (hits '$$hits')"; \
	    diff $$tmp/$$kind.cold $$tmp/$$kind.resumed; return 1; \
	  fi; \
	}; \
	resume_smoke trial-churn churn -n 2000 -t 2 --ops 20000 --checkpoint-every 2000 \
	  && resume_smoke trial-grow table4 --incremental; \
	status=$$?; rm -rf $$tmp; exit $$status
	@dune exec --no-build test/bulk_smoke.exe || \
	  { echo "bulk smoke FAILED: see diagnosis above"; exit 1; }
	@tmp=$$(mktemp -d); \
	printf 'x,y\n0.25,0.75\n0.5,0.125\n0.75,0.5\n' > $$tmp/points.csv; \
	for d in 43 -1; do \
	  _build/default/bin/popan.exe measure -i $$tmp/points.csv --max-depth=$$d \
	    > /dev/null 2> $$tmp/err.txt; status=$$?; \
	  if [ $$status -ne 1 ] || [ $$(wc -l < $$tmp/err.txt) -ne 1 ]; then \
	    echo "measure smoke FAILED: --max-depth=$$d exited $$status with stderr:"; \
	    cat $$tmp/err.txt; rm -rf $$tmp; exit 1; \
	  fi; \
	done; \
	printf '0.3,0.3\n0.3,0.3\n0.3,0.3\n' > $$tmp/dups.csv; \
	if _build/default/bin/popan.exe measure -i $$tmp/dups.csv --max-depth 42 -m 1 \
	     > $$tmp/out.txt 2> $$tmp/err.txt \
	   && grep -q ', height 42$$' $$tmp/out.txt; then \
	  echo "measure smoke: --max-depth outside [0, 42] refused; duplicates reach height 42"; \
	  rm -rf $$tmp; \
	else \
	  echo "measure smoke FAILED: duplicates at --max-depth 42:"; \
	  cat $$tmp/out.txt $$tmp/err.txt; rm -rf $$tmp; exit 1; \
	fi
	@dune exec --no-build test/churn_smoke.exe || \
	  { echo "churn smoke FAILED: see diagnosis above"; exit 1; }
	@dune exec --no-build test/serve_smoke.exe -- _build/default/bin/popan.exe || \
	  { echo "serve smoke FAILED: see diagnosis above"; exit 1; }
	@tmp=$$(mktemp -d); \
	dune exec --no-build bin/popan.exe -- serve --socket $$tmp/sock \
	  --telemetry --warm 2 -n 5000 --churn-ops 128 2>$$tmp/serve.log & \
	pid=$$!; \
	i=0; while [ ! -S $$tmp/sock ] && [ $$i -lt 100 ]; do sleep 0.1; i=$$((i+1)); done; \
	if [ ! -S $$tmp/sock ]; then \
	  echo "obs-top smoke FAILED: server socket never appeared"; \
	  cat $$tmp/serve.log; kill $$pid 2>/dev/null; rm -rf $$tmp; exit 1; \
	fi; \
	dune exec --no-build bin/popan.exe -- obs top --socket $$tmp/sock --once --prom --quit \
	  > $$tmp/prom.txt; \
	wait $$pid || { echo "obs-top smoke FAILED: server exited unclean"; \
	  cat $$tmp/serve.log; rm -rf $$tmp; exit 1; }; \
	if dune exec --no-build bin/popan.exe -- obs validate $$tmp/prom.txt \
	   && grep -q '^popan_serve_publish_replayed' $$tmp/prom.txt; then \
	  echo "obs-top smoke: live scrape over the socket validates as Prometheus"; \
	  rm -rf $$tmp; \
	else \
	  echo "obs-top smoke FAILED: scraped exposition did not validate or lacks popan_serve_publish_replayed"; \
	  cat $$tmp/serve.log; rm -rf $$tmp; exit 1; \
	fi

bench:
	dune exec bench/main.exe

# Machine-readable perf trajectory: ns/run per micro-bench as flat JSON.
# Override the output per PR: make bench-json BENCH_JSON=BENCH_PR2.json
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	dune exec bench/main.exe -- --json $(BENCH_JSON)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/gis_hotspots.exe
	dune exec examples/line_map.exe
	dune exec examples/capacity_planning.exe
	dune exec examples/hashing_phasing.exe
	dune exec examples/octree_cloud.exe
	dune exec examples/polygon_map.exe
	dune exec examples/map_overlay.exe
	dune exec examples/rect_index.exe

reproduce:
	dune exec bin/popan.exe -- all

report:
	dune exec bin/popan.exe -- report -o reproduction_report.md

selftest:
	dune exec bin/popan.exe -- selftest

clean:
	dune clean
