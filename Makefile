GO ?= go

.PHONY: build test tier1 vet race fuzz chaos elastic-chaos obs jobs bench benchmod gate stat durable kernels lint-metrics uncovered ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the contract every change must keep green.
tier1: build test

# vet also fails when any Go file is not gofmt-clean. It vets the
# arm64 build and builds the 386 one too, so the portable kernel path
# (the Go loops every non-amd64 build runs) keeps compiling; on amd64,
# vet's asmdecl pass checks the assembly frames against their Go
# declarations.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l: $$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suite alone (worker faults, each a death
# verdict with or without a hang deadline, coordinator kills, protocol
# violations, the fold-order sessions that park reports behind a gap, the
# one-row-token sessions whose reports carry rank-1 factors through a
# dead window holder, a join and drain, a resume and malformed factors,
# the barrier fold's sessions — mixed factor and dense reporters, parked
# reports, a reporter dying with its factors pending, momentum, a resume
# — and its direct fold of mixed out-of-order reports, the one-row
# sessions whose weight gradients are folded on the barrier's own tiles
# with no dense sum or velocity held, a worker refusing a malformed
# iter-start, the checkpoint bytes with and without momentum, and the
# sessions whose iter-start is delivered after the next barrier by a
# stalled asyncConn forwarder) under the race detector, repeated to
# shake out scheduling-dependent behaviour.
chaos:
	$(GO) test ./internal/rt/ -run 'TestChaos|TestFoldBarrier|TestFactorOnlySectionsHoldNoSum|TestWorkerRefusesMalformedIterStart|TestCheckpointBytesUnchanged' -race -count=3 -v
	$(GO) test ./internal/jobs/ -run 'TestAsyncConnBroadcastSnapshotOutlivesBarrier|TestSlowPoolWorkerMatchesReference' -race -count=3 -v

# elastic-chaos runs the live-membership suite (scripted joins, drains,
# evictions, drain-racing-death) under the race detector, repeated to
# shake out scheduling-dependent behaviour.
elastic-chaos:
	$(GO) test ./internal/rt/ ./internal/elastic/ -run 'TestElastic|TestRetuner|TestController' -race -count=3 -v

# obs runs the telemetry suite under the race detector: the registry
# hammer, the exposition golden file, span propagation, the HTTP
# endpoints, the rt status feed, and the TCP e2e scrape test.
obs:
	$(GO) test ./internal/obs/ -race -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestStatus|TestSessionTelemetry|TestTelemetryOff' -v
	$(GO) test ./cmd/felaserver/ -race -run TestServerObservabilityE2E -v

# jobs runs the multi-tenant suite under the race detector: the manager
# unit/integration tests (including the migration chaos tests and the
# sessions whose iter-start outlives the next barrier in an asyncConn
# queue), the felaserver -jobs TCP e2e paths repeated on one CPU (each
# ends with the pool workers rejoining a draining manager), and the
# multijob example.
jobs:
	$(GO) test ./internal/jobs/ -race -count=1 -v
	GOMAXPROCS=1 $(GO) test ./cmd/felaserver/ -race -count=20 -run 'TestServerJobsMode|TestServerClusterTrace|TestJobsModeGracefulShutdown' -v
	$(GO) test ./examples/multijob/ -race -count=1

# fuzz runs the AVX2 row tile against the scalar loop, the AVX2
# AccumRows (its multiplier compaction) against the row tile fed the
# whole list, ReLU and its gradient on both kernel paths against the
# branching originals, the AVX2 plane
# pass of the conv parameter gradient against the two steps it replaces
# (AccumRows and the bias sum), the key compaction on both kernel paths
# against its spec, the fused rank-1 fold on both kernel paths against
# the two steps it replaces, the binary frame
# decoder and its round trip, the top-k selection against its
# sort-based reference, a TCP conn's Recv (with and without a
# destination for iter-start parameters) against DecodeBinary, and the
# durable record decoder, its round trip and ledger replay (which read
# their fields with the wire codec's PayloadReader), for a short budget
# on top of the committed corpus (which plain `go test` already
# replays).
fuzz:
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzAxpyTile -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzAccumRows -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzReLU -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzAccumPlane -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzCompactKeys -fuzztime 10s
	$(GO) test ./internal/tensor/ -run xxx -fuzz FuzzAddOuterScaled -fuzztime 10s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzBinaryDecode -fuzztime 10s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzBinaryRoundTrip -fuzztime 10s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzTopKSelect -fuzztime 10s
	$(GO) test ./internal/transport/ -run xxx -fuzz FuzzRecvBinary -fuzztime 10s
	$(GO) test ./internal/durable/ -run xxx -fuzz FuzzDurableDecode -fuzztime 10s
	$(GO) test ./internal/durable/ -run xxx -fuzz FuzzDurableRoundTrip -fuzztime 10s
	$(GO) test ./internal/durable/ -run xxx -fuzz FuzzLedgerReplay -fuzztime 10s

# bench smoke-runs the hot-path benchmarks (wire codecs, a 4 MB report
# and train-comm's 4.26 MB iter-start over loopback TCP, with the
# receive buffer's size, the iter-start both into a frame buffer and in
# place into live tensors with none, matmul and elementwise kernels, the row tile under
# them, the key compaction under the top-k encoder, the fold's AddScaled
# and its rank-1 AddOuterScaled, the barrier's band fold of 16 rank-1
# terms against the per-token fold, a token's forward/backward at the
# train-compute and train-comm shapes, the conv passes (the layer-0
# parameter pass on a max-pool-routed gradient among them), the
# max-pool's forward and backward at train-compute's shape, a
# train-sched-shaped session over loopback TCP, the coordinator's
# receive-and-fold of an exact, a top-k and a rank-1 train-comm report,
# an iteration's rank-1 reports through the event loop and the barrier
# (momentum 0, train-comm's own step, and 0.9),
# and its iter-start fan-out to two conns, a small pooled job from
# submit to settle and the spec validation in front of it) at
# -benchtime 100x:
# enough to catch a broken benchmark or a pathological regression
# without turning CI into a perf lab.
bench:
	$(GO) test ./internal/transport/ -run xxx -bench 'BenchmarkCodec|BenchmarkTCPReport|BenchmarkTCPIterStart' -benchtime 100x -benchmem
	$(GO) test ./internal/tensor/ -run xxx -bench 'BenchmarkMatMul|BenchmarkAccumRows|BenchmarkAddRows|BenchmarkCompactKeys|BenchmarkReLU|BenchmarkAddScaled|BenchmarkAddOuterScaled|BenchmarkAddOutersScaled' -benchtime 100x
	$(GO) test ./internal/minidnn/ -run xxx -bench 'BenchmarkToken|BenchmarkConv|BenchmarkMaxPool' -benchtime 100x
	$(GO) test ./internal/rt/ -run xxx -bench 'BenchmarkSchedSession|BenchmarkFoldReport|BenchmarkBarrierFold|BenchmarkIterStart' -benchtime 100x -benchmem
	$(GO) test ./internal/jobs/ -run xxx -bench 'BenchmarkPoolJob|BenchmarkNormalizeSpec' -benchtime 100x

# benchmod covers the regression benchmark, a module of its own under
# bench/ that ./... does not reach: static analysis and the harness's
# own tests (≈3 s). Tier-1 already compiles and vets it
# (TestBenchModuleBuilds in the root package).
benchmod:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# gate runs the serving-gateway suite under the race detector (unit
# tests, the 64-tenant hammer, the two real-manager shards under a
# paced load and a token-bucket overload, the felagate binary's
# serve/drain e2e tests) and repeats the metrics-and-spans test that
# reads a settlement's side effects once Inflight() reaches 0.
gate:
	$(GO) test ./internal/gate/ -race -count=1 -v
	$(GO) test ./internal/gate/ -race -run TestGatewayMetricsAndSpans -count=200
	$(GO) test ./cmd/felagate/ -race -count=1 -v

# stat runs the cluster observability aggregator suite under the race
# detector: felastat -json against a live two-shard gateway (tenant
# burn rates, shard admission ledgers, the worker straggler heatmap).
stat:
	$(GO) test ./cmd/felastat/ -race -count=1 -v

# durable runs the durability-plane suite under the race detector: the
# record/ledger/store unit tests with their golden frames and fuzz
# corpora, the rt kill-at-every-protocol-state chaos matrix, the
# manager crash-recovery tests (multi-job lease state, bit-identical
# resume), and the felaserver restart-and-resume + felaworker
# -reconnect e2e paths.
durable:
	$(GO) test ./internal/durable/ -race -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestChaosCoordinatorKillEveryProtocolState|TestChaosKillAtEveryIteration' -count=1 -v
	$(GO) test ./internal/jobs/ -race -run 'TestManagerCrashRecovery|TestManagerRestore|TestManagerSubmitRefused' -count=1 -v
	$(GO) test ./cmd/felaserver/ -race -run TestServerDurable -count=1 -v
	$(GO) test ./cmd/felaworker/ -race -run TestReconnect -count=1 -v

# kernels runs the compute-kernel and gradient-compression suites under
# the race detector: bit-pattern identity with the naive kernels across
# tile tails, special values and fan-out widths, on the AVX2 and the
# portable path — the conv's plane pass, 2×2 max-pool (forward and
# backward, tails of the eight-window step), im2col transpose, ReLU both
# ways (every length to 33 at unaligned starts) and AccumRows's
# multiplier compaction among them, with the FuzzAccumPlane and FuzzReLU
# corpora replayed — the key compaction
# against its spec on both, the fused
# rank-1 fold against its two steps on both, the band fold of many
# rank-1 terms (the AVX2 rank-k row) against the per-token fold on both,
# the tensor and minidnn suites once more built with GOAMD64=v3 (where the
# compiler may use FMA), the tensor, minidnn and transport suites built
# for 386 (the portable path alone, the AVX2 entry points stubbed by
# kernels_other.go: every layer, the deferred
# weight-gradient zero and rank-1 factors, and the fused and band rank-1
# folds on the Go loops, every top-k frame against the
# sort-based reference without the AVX2 compaction), layer-buffer
# ownership and two networks sharing the kernel pool (all of minidnn), the
# fp16/int8/topk codec properties with their golden v2 frames and
# hostile-header cases, top-k encoders sharing the scratch pool
# (TestTopKConcurrentEncoders) and the FuzzTopKSelect corpus replayed,
# the zero-copy float path (sections written from the sender's slice,
# received as aligned views of the frame, checkptr-checked under -race),
# the rank-1 report sections (golden frame, hostile lengths, views of
# the frame), the negotiated end-to-end TCP sessions, receive buffers
# that fit their frames, the coordinator's barrier fold against the
# per-token fold, and the one-row sessions folded on the barrier's own
# tiles.
kernels:
	$(GO) test ./internal/tensor/ -race -count=1 -v
	$(GO) test ./internal/minidnn/ -race -count=1 -v
	GOAMD64=v3 $(GO) test ./internal/tensor/ ./internal/minidnn/ -count=1
	GOARCH=386 $(GO) test ./internal/tensor/ ./internal/minidnn/ ./internal/transport/ -count=1
	$(GO) test ./internal/transport/ -race -run 'TestFP16|TestInt8|TestTopK|FuzzTopKSelect|TestCompress|TestParamsStayExact|TestView|TestSendCapturesPayload|TestRecvHeaderAlone|FuzzRecvBinary|TestRank1|TestDecodeRejectsMalformedPayloads|TestRecvBufferFitsFrame' -count=1 -v
	$(GO) test ./internal/rt/ -race -run 'TestCompress|TestFoldBarrier|TestFactorOnlySectionsHoldNoSum|TestWorkerRefusesMalformedIterStart' -count=1 -v

# lint-metrics is the exposition-conformance gate: every e2e test that
# scrapes /metrics (felaserver observability, felastat live cluster)
# runs the body through obs.LintExposition, so a malformed sample or
# exemplar line fails here.
lint-metrics:
	$(GO) test ./internal/obs/ -run 'TestLint|TestParse|TestExemplar' -count=1 -v
	$(GO) test ./cmd/felaserver/ -run TestServerObservabilityE2E -count=1
	$(GO) test ./cmd/felastat/ -run TestFelastatLiveTwoShardCluster -count=1

# uncovered is informational, not part of ci: it runs tier-1 with
# coverage of every package in the module and lists the functions no
# test ever enters (0.0 % in `go tool cover -func`), then their count.
UNCOVERED_PROFILE ?= uncovered.cover
uncovered:
	@out="$$($(GO) test -coverpkg=./... -coverprofile=$(UNCOVERED_PROFILE) ./... 2>&1)" || { echo "$$out"; exit 1; }
	@$(GO) tool cover -func=$(UNCOVERED_PROFILE) | awk '$$NF == "0.0%" { print; n++ } END { print n + 0, "functions at 0.0%" }'

# ci is the full gate: tier-1, static analysis, race detector, the
# multi-tenant suite, the benchmark smoke pass, the regression-benchmark
# module, the serving-gateway suite, the observability aggregator, the
# durability plane, and the compute-kernel/compression suite.
ci: tier1 vet race jobs bench benchmod gate stat durable kernels
