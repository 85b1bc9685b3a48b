# Convenience targets; everything is plain `go` underneath.

.PHONY: test bench bench-smoke reproduce ablations chaos overload audit drain metrics corescale examples verify identity record

# test is the everyday gate; `make verify` is the full pre-merge chain
# (gofmt + build + vet + race tests + the gates + the quick chaos matrix).
test:
	go vet ./...
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# bench-smoke is a quick smoke run: vet, race-enabled short tests, and
# the short-mode benchmarks (including the connection-scaling poller
# study) each running exactly once. The pre-merge chain is `verify`.
bench-smoke:
	go vet ./...
	go test -race -short ./...
	go test -short -run '^$$' -bench . -benchtime 1x ./...

reproduce:
	go run ./cmd/reproduce

ablations:
	go run ./cmd/reproduce -ablations

# chaos runs the fault-domain matrix (internal/bench/chaos.go) for every
# domain: link (every workload under randomized link plans plus the
# node-crash scenario), nic (web and kvstore over sessions under NIC
# faults and a server link flap), fabric (every single trunk and spine
# of a 2x2 spine-leaf fabric killed in turn) and restart (every host
# crash-restarted in turn). Each run must finish with exact output,
# recovery recorded and a clean leak audit; each domain's control run,
# with the recovery disabled, must fail. Any unexpected outcome fails
# the target.
chaos:
	go run ./cmd/reproduce -chaos all

# overload runs the flood/starvation resilience suite under the race
# detector: connect floods beyond the backlog, credit/buffer starvation
# with deadlines, and the bounded-pool edge races.
overload:
	go test -race -run 'Overload|Deadline|Budget|UQByte|Refus|Starv' ./...

# audit runs every workload, a connect flood, and the teardown matrix,
# then the host-wide descriptor-leak auditor; any finding fails the
# target.
audit:
	go run ./cmd/reproduce -audit

# metrics prints the hot-path latency decomposition (per-stage span
# histograms for the eager, rendezvous, and TCP paths) and writes the
# machine-readable snapshot to BENCH_metrics.json; the telescoping
# stage-sum check fails the target on any mismatch.
metrics:
	go run ./cmd/reproduce -metrics

# corescale runs the SMP core-scaling study: web and kvstore worker
# pools swept over 1/2/4/8 workers on 1/2/4/8-core hosts, both
# transports, writing BENCH_corescale.json; the monotonicity and
# 4-core/4-worker >= 2x web gates fail the target.
corescale:
	go run ./cmd/reproduce -corescale

# drain runs the graceful-teardown suite under the race detector:
# half-close, lingering close, dial deadlines, double-close, and the
# host-wide quiesce scenarios.
drain:
	go test -race -run 'Teardown|HalfClose|Linger|Drain|DoubleClose|DialDeadline' ./...

examples:
	go run ./examples/quickstart
	go run ./examples/rawemp
	go run ./examples/ftp
	go run ./examples/webserver
	go run ./examples/matmul
	go run ./examples/kvstore

# verify is the full pre-merge chain: the gofmt check, build, the
# golden tests (a few seconds, so a drifted golden fails before the long
# legs), vet, the race-enabled test suite, vet and short tests of the nested benchmark
# module (outside the root module's ./..., so a renamed telemetry key
# or API it reads is caught here), the connscale demux regression gate
# (1024-conn all-active per-dispatch lookup cost must stay within a
# pinned multiple of the 8-conn cost in hashed mode), the quick
# core-scaling gate (worker monotonicity plus the 4-core/4-worker
# >= 2x web bar on both transports), and the quick chaos matrix of
# every fault domain (link plans and the crash scenario, every NIC
# fault kind, one trunk and one spine kill, the server and one client
# of each workload crash-restarted, plus each domain's control).
verify:
	test -z "$$(gofmt -l .)"
	go build ./...
	go test -count=1 -run Golden ./...
	go vet ./...
	go test -race ./...
	cd benchmark && go vet . && go test -short .
	go test -run TestConnScaleDispatchGate -count=1 ./internal/bench
	go test -run TestCoreScaleGate -count=1 ./internal/bench
	go run ./cmd/reproduce -chaos all -quick

# identity checks that a change leaves every quick report and every
# trace unchanged: it builds cmd/reproduce and cmd/trace at PARENT (from
# a temporary git archive export) and from the working tree, runs
# reproduce with -fig all, -ablations, -metrics, -audit, -corescale,
# -connscale and -chaos all (each with -quick), the full-size
# -fig all -plot sweep and -chaos all report (whose nic and restart
# domains run the session watchdog in every session), and trace with the
# pingpong scenario on both transports, connect-race, lossy, chaos and
# drain, plus drain and lossy with -flight all, which print every
# connection's flight-recorder ring (each case in its own temporary
# directory), and fails if stdout, the exit status or any BENCH_*.json
# written differs. Usage: make identity PARENT=<rev>.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	bash scripts/identity.sh $(PARENT)

# record regenerates the committed experiment record artifacts.
record:
	go vet ./...
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
