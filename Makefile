# Development targets. `make check` is the tier-1 gate plus the race
# detector over the concurrency-heavy packages; run it before pushing.

GO ?= go

# Packages whose tests exercise real concurrency (one goroutine per
# protocol party, fault-injection delays, TCP pumps, the lock-cheap
# observability registry): these run under the race detector in short
# mode as part of check.
RACE_PKGS := . ./internal/transport/ ./internal/core/ ./internal/unlinksort/ ./internal/ssmpc/ ./internal/sssort/ ./internal/obsv/ ./internal/kernel/ ./internal/journal/ ./internal/blame/ ./internal/telemetry/ ./internal/tracemerge/ ./internal/service/ ./cmd/rankparty/ ./cmd/rankd/

# Packages with fuzz targets guarding the untrusted decode boundaries
# (group element parsing, wirecodec frames and integer runs, the
# dot-product flows, transport pumps, the rankd
# control codecs, the durable log's replay of whatever is on disk), and
# the one limb field and what the curve kernel and the secret-sharing
# stack build on it, against math/big. `make fuzz` runs each target
# briefly — a smoke pass over the corpora plus a little fresh
# exploration, fast enough for check.
FUZZ_PKGS := ./internal/field/ ./internal/group/ ./internal/shamir/ ./internal/wirecodec/ ./internal/elgamal/ ./internal/dotprod/ ./internal/transport/ ./internal/service/ ./internal/journal/
FUZZ_TIME ?= 2s

# The demo targets build their binaries (and telemetry-demo its traces)
# here, inside the checkout and git-ignored, so that two checkouts on one
# host never run each other's builds.
BUILD := $(CURDIR)/.build

# Internal packages that only tests import, exempt from the reachability
# check in vet:
#   chaos      the fault-injection and Byzantine test harness
#   leakcheck  the goroutine-leak test harness
#   blame      the certificate verifier the Byzantine suites use as evidence
#   nettap     the frame and message recorders the golden-transcript and
#              trace tests read
REACH_ALLOW := chaos leakcheck blame nettap

.PHONY: check vet build test test-386 race race-full fuzz chaos chaos-byz chaos-rankd bench bench-json bench-compare bench-smoke trace-demo demo-distributed telemetry-demo serve-demo loadtest-smoke clean

check: vet build bench-smoke test test-386 race fuzz chaos-rankd serve-demo loadtest-smoke

# staticcheck is optional tooling: run it when the developer has it
# installed, stay silent (and green) when they do not.
# The 386 passes over internal/field, internal/group and internal/shamir
# type-check the limb field and its two users where big.Word is 32 bits
# wide, the target their big.Int conversions must not make assumptions
# about.
# The dependency check keeps wirecodec the only serializer: nothing the
# module builds (tests aside) may pull encoding/gob back in, directly or
# through a dependency.
# The socket check keeps link.go the only TCP stack: nothing else in
# internal/transport (tests aside) may listen, dial or accept, so a
# second copy of mesh formation cannot grow back unnoticed.
# The journaling check keeps muxrecover.go the only recovery discipline:
# nothing else in internal/transport (tests aside) may append to a
# session journal, so a second retransmit scheme cannot grow back either.
# The ledger-and-wait check keeps endpoint.go the only send ledger and
# the only blocking receive: nothing else in internal/transport (tests
# aside) may count a sent message or wait on a context, so the in-memory
# fabric and the TCP stacks cannot grow second copies of either again.
# The element-encoding check keeps Group.AppendElement/Decode the only
# element encoding and internal/field's Sqrt the only square root: no
# non-test Go may call big.Int.ModSqrt or bring back the structural
# element form (AppendElementWire/DecodeElementWire) that the wire,
# the journal and the echo digest once carried beside the canonical one.
# The integer-encoding check keeps wirecodec.Uints the only integer
# encoding: no non-test Go may bring back the sign ‖ length ‖ magnitude
# form (AppendBigInt(s), Reader.BigInt(s)) or the []*big.Int share
# conversion (ToBigs) that shares, field elements and scalars once
# crossed the wire, the journal and the echo digest in.
# The durable-file check keeps internal/journal's Log the only durable
# log: outside internal/journal (tests aside) no code may fsync, rename,
# open for append or truncate a file, so framing, the torn-tail rule and
# compaction cannot drift apart in a second copy again.
# core.RunParty is the only establish → role sequence and
# journal.OpenSession the only session-journal opener by the compiler's
# hand: the session round, the roles, the role seeds and the pin, seed
# and epoch steps are unexported, and arch_test.go keeps every internal
# package's exports to what a caller outside it uses.
# The mesh check keeps transport.RunMesh the only in-process mesh:
# outside internal/transport (tests aside) no code may build a Fabric
# itself, so the goroutine per party, the sibling cancellation and the
# root-cause rule under Rank, UnlinkableSort and the secret-sharing
# engine cannot grow a second copy again. The randomness check keeps
# every party's randomness a fixedbig.DRBG: no non-test Go may read
# crypto/rand.Reader (an unseeded party draws its seed with
# fixedbig.DrawSeed instead). The party-label check keeps
# fixedbig.PartyDRBG the only per-party label of the sorting protocol
# and the secret-sharing engine: outside internal/fixedbig no code may
# spell "-party-%d", so the tiers cannot key a party differently.
# The front-end check keeps internal/cli the one place grouprank,
# rankparty and rankd register, default and validate their shared
# settings: outside it no non-test Go may register -sorter, -journal,
# -grace, -admin, -trace or one of the eight -fault-* flags, so a
# binary cannot drift to its own default or exit code again. The
# sorter-name check keeps core.ParseSorter and Sorter.String the one
# spelling of a sorter: the old API spelling "secretsharing" is gone,
# and outside internal/core (and the API constants in internal/api) no
# non-test Go may spell "unlinkable" or "secret-sharing" as a literal
# or switch on the API's sorter names.
# The one-fabric check keeps transport.TCPFabric the one endpoint of a
# party that joins a TCP mesh alone, built by OpenTCPFabric from the
# MuxOptions a daemon gives its mux: no Go file (tests included) may
# bring back the second fabric type or its option struct
# (RecoveringTCPFabric, RecoverOptions), and nothing in
# internal/transport may attach telemetry after the mesh forms
# (SetTelemetry), so a one-shot party serves the families a daemon does;
# nor may internal/journal after a journal opens (journal.OpenSession
# takes the registry).
# The element-method check keeps Group.AppendElement the one element
# encoder: the group package may not grow an Encode( method back beside
# it, on the Group interface or on a group.
# The squaring check keeps field.Field.Sqr the one way the curve kernel
# and the square root square: no non-test Go in internal/group, nor
# internal/field/sqrt.go, may call Mul with the same operand twice
# (Mul(&a, &b, &b)), so a square cannot silently pay a multiply where
# the fold and P-256's shape square in fewer word products.
# The cold-start checks keep every named group built alone, from its
# constants, on first use: non-test internal/group code may not use a
# plain sync.Once (one lazy value per group, sync.OnceValue, the way
# lazyCurve and lazyDL build them, since a once shared by several groups
# makes naming one of them build them all), and may call fixedbig.Prime
# only inside GenerateDLGroup, so no named group searches for its prime
# at run time (toy-dl-256's prime is pinned, and its derivation is a
# test).
# The inlining check keeps secp160r1's point formulas on register-resident
# arithmetic: every Fold.Add and Fold.Sub call of the fold formulas
# (internal/group/fold.go, whose Fold values are named f) must be inlined
# there, as the compiler's -m report of that file says, since their gain
# over the generic formulas rests on it. Fold.Add's cost is the inlining
# budget itself, so a change that grows it fails here first. P-256's body
# (internal/field/p256.go) gets the same check one level down: its
# P256.Add and P256.Sub cost more than the budget, so the P-256 formulas
# call them, but the final subtraction p256Reduce must be called by
# P256.Add, P256.Mul and P256.Sqr and inlined at every call, and so must
# the reduction row p256Row in Mul and Sqr (P256.Sub adds p back under a
# mask and has no final subtraction to share).
# The exposition check keeps internal/telemetry the one metrics store
# and its expo.go the one Prometheus writer: outside internal/telemetry
# no non-test Go may write exposition comment lines ("# HELP " or
# "# TYPE "), so a second registry with its own hand-written /metrics
# text cannot grow back beside it (obsv's per-party op counts are a
# counter family in the store, not a writer of their own).
# The gofmt check names the source trees, not ".", so that the build
# cache bench/run.sh leaves under .bench_build/ is not walked.
# The reachability check keeps production code to what a binary or the
# public package uses: every internal package must be in the dependency
# graph of . and ./cmd/..., apart from REACH_ALLOW below.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./internal/field/
	GOARCH=386 $(GO) vet ./internal/group/
	GOARCH=386 $(GO) vet ./internal/shamir/
	@unformatted=$$(gofmt -l *.go bench cmd examples internal); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists (run gofmt -w on them):"; echo "$$unformatted"; exit 1; fi
	@if $(GO) list -deps ./... | grep -x encoding/gob; then \
		echo "encoding/gob is back in the dependency graph (see line above); every wire type needs a wirecodec codec"; exit 1; fi
	@reached=$$($(GO) list -deps . ./cmd/...); unreached=""; \
	for pkg in $$($(GO) list ./internal/...); do \
		case " $(REACH_ALLOW) " in *" $${pkg#groupranking/internal/} "*) continue;; esac; \
		echo "$$reached" | grep -qx "$$pkg" || unreached="$$unreached $$pkg"; \
	done; \
	if [ -n "$$unreached" ]; then \
		echo "no binary and not the root package reaches:$$unreached (delete it, or add it to REACH_ALLOW with a reason)"; exit 1; fi
	@sockets=$$(grep -lE 'net\.(Listen|Dial|DialTimeout|Dialer)\b|\.Accept\(\)|\.DialContext\(' internal/transport/*.go | grep -v _test.go | tr '\n' ' '); \
	if [ "$$sockets" != "internal/transport/link.go " ]; then \
		echo "listen/dial/accept calls in internal/transport belong in link.go alone, found in: $$sockets"; exit 1; fi
	@journaling=$$(grep -lE 'LogSend\(|LogRecv\(' internal/transport/*.go | grep -v _test.go | tr '\n' ' '); \
	if [ "$$journaling" != "internal/transport/muxrecover.go " ]; then \
		echo "journal appends (LogSend/LogRecv) in internal/transport belong in muxrecover.go alone, found in: $$journaling"; exit 1; fi
	@ledger=$$(grep -lE 'Messages\+\+|[^.]ctx\.Done\(\)' internal/transport/*.go | grep -v _test.go | tr '\n' ' '); \
	if [ "$$ledger" != "internal/transport/endpoint.go " ]; then \
		echo "send counting (Messages++) and receive waits (ctx.Done()) in internal/transport belong in endpoint.go alone, found in: $$ledger"; exit 1; fi
	@encodings=$$(find *.go bench cmd examples internal -name '*.go' ! -name '*_test.go' | xargs grep -lE 'ModSqrt|AppendElementWire|DecodeElementWire' | tr '\n' ' '); \
	if [ -n "$$encodings" ]; then \
		echo "ModSqrt and the structural element form are gone (use field.Sqrt and Group.AppendElement/Decode), found in: $$encodings"; exit 1; fi
	@integers=$$(find *.go bench cmd examples internal -name '*.go' ! -name '*_test.go' | xargs grep -lE 'AppendBigInt|\.BigInts?\(\)|ToBigs' | tr '\n' ' '); \
	if [ -n "$$integers" ]; then \
		echo "the sign-length-magnitude integer form is gone (use wirecodec.Uints: AppendInts/UintsOf, Reader.Uints/Scalars), found in: $$integers"; exit 1; fi
	@durable=$$(find *.go cmd internal -name '*.go' ! -name '*_test.go' ! -path 'internal/journal/*' | xargs grep -lE '\.Sync\(\)|os\.Rename\(|os\.O_APPEND|\.Truncate\(' | tr '\n' ' '); \
	if [ -n "$$durable" ]; then \
		echo "fsync/rename/append-open/truncate belong in internal/journal (use journal.Log), found in: $$durable"; exit 1; fi
	@fabrics=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' ! -path 'internal/transport/*' | xargs grep -lE 'transport\.New\(' | tr '\n' ' '); \
	if [ -n "$$fabrics" ]; then \
		echo "the in-process mesh is built only by transport.RunMesh (use it), found transport.New( in: $$fabrics"; exit 1; fi
	@reader=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' | xargs grep -lE 'rand\.Reader' | tr '\n' ' '); \
	if [ -n "$$reader" ]; then \
		echo "party randomness is a fixedbig.DRBG (resolve a missing seed with fixedbig.DrawSeed), found rand.Reader in: $$reader"; exit 1; fi
	@label=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' ! -path 'internal/fixedbig/*' | xargs grep -lF -- '-party-%d' | tr '\n' ' '); \
	if [ -n "$$label" ]; then \
		echo "the per-party DRBG label lives in internal/fixedbig (use fixedbig.PartyDRBG), found -party-%d in: $$label"; exit 1; fi
	@frontend=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' ! -path 'internal/cli/*' | xargs grep -lE '\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var|Func|TextVar)(Var)?\(([^,]+, )?"(sorter|journal|grace|admin|trace|fault-(seed|drop|dup|reorder|corrupt|delay|crash-party|crash-round))"' | tr '\n' ' '); \
	if [ -n "$$frontend" ]; then \
		echo "the shared flags are registered in internal/cli alone (use cli.Flags), found a registration in: $$frontend"; exit 1; fi
	@oldname=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' | xargs grep -lF '"secretsharing"' | tr '\n' ' '); \
	if [ -n "$$oldname" ]; then \
		echo "the secret-sharing sorter is spelled secret-sharing everywhere (core.Sorter.String), found \"secretsharing\" in: $$oldname"; exit 1; fi
	@sorters=$$(find *.go cmd examples internal -name '*.go' ! -name '*_test.go' ! -path 'internal/core/*' ! -path 'internal/api/api.go' | xargs grep -lE '"(unlinkable|secret-sharing)"|case .*api\.Sorter' | tr '\n' ' '); \
	if [ -n "$$sorters" ]; then \
		echo "sorter names are parsed by core.ParseSorter and spelled by Sorter.String alone, found a sorter name in: $$sorters"; exit 1; fi
	@fabtypes=$$(find *.go bench cmd examples internal -name '*.go' | xargs grep -lE 'RecoveringTCPFabric|RecoverOptions' | tr '\n' ' '); \
	if [ -n "$$fabtypes" ]; then \
		echo "a party joins a TCP mesh through transport.TCPFabric alone (use OpenTCPFabric with MuxOptions.Recovery), found RecoveringTCPFabric/RecoverOptions in: $$fabtypes"; exit 1; fi
	@setter=$$(grep -lF 'SetTelemetry' internal/transport/*.go internal/journal/*.go | tr '\n' ' '); \
	if [ -n "$$setter" ]; then \
		echo "transport endpoints and session journals take telemetry at construction (MuxOptions.Telemetry, journal.OpenSession), found SetTelemetry in: $$setter"; exit 1; fi
	@encode=$$(grep -lE '^[[:space:]]+Encode\(|^func \([^)]*\) Encode\(' internal/group/*.go | tr '\n' ' '); \
	if [ -n "$$encode" ]; then \
		echo "group elements have one encoder, Group.AppendElement (use AppendElement(nil, e)), found an Encode( method in: $$encode"; exit 1; fi
	@squares=$$(find internal/group internal/field/sqrt.go -name '*.go' ! -name '*_test.go' | xargs grep -nE 'Mul\(([^,()]+), ([^,()]+), \2\)' | tr '\n' ' '); \
	if [ -n "$$squares" ]; then \
		echo "a square is Sqr(&z, &x), not Mul(&z, &x, &x), found: $$squares"; exit 1; fi
	@once=$$(find internal/group -name '*.go' ! -name '*_test.go' | xargs grep -nE 'sync\.Once([^A-Za-z]|$$)' | tr '\n' ' '); \
	if [ -n "$$once" ]; then \
		echo "a named group is one lazy value of its own (sync.OnceValue, as lazyCurve and lazyDL), not a shared sync.Once, found: $$once"; exit 1; fi
	@search=$$(find internal/group -name '*.go' ! -name '*_test.go' | xargs awk 'FNR == 1 { fn = "" } /^func / { fn = $$0 } /fixedbig\.Prime\(/ && fn !~ /^func GenerateDLGroup\(/ { print FILENAME ":" FNR }' | tr '\n' ' '); \
	if [ -n "$$search" ]; then \
		echo "a named group is built from pinned constants, not searched for (fixedbig.Prime belongs in GenerateDLGroup alone), found: $$search"; exit 1; fi
	@calls=$$(grep -oE '\bf\.(Add|Sub)\(' internal/group/fold.go | wc -l); \
	inlined=$$($(GO) build -gcflags=-m ./internal/group/ 2>&1 | grep -cE '^internal/group/fold\.go:[0-9]+:[0-9]+: inlining call to field\.Fold\.(Add|Sub)$$'); \
	if [ "$$calls" -eq 0 ] || [ "$$calls" -ne "$$inlined" ]; then \
		echo "internal/group/fold.go calls field.Fold's Add/Sub $$calls times and the compiler inlines $$inlined (go build -gcflags=-m ./internal/group/): keep both within the inlining budget"; exit 1; fi
	@for fn in Add Mul Sqr; do \
		awk "/^func \\(P256\\) $$fn\\(/,/^}/" internal/field/p256.go | grep -q 'p256Reduce(' || { \
			echo "P256.$$fn in internal/field/p256.go no longer ends in p256Reduce, the final subtraction make vet checks for inlining"; exit 1; }; \
	done
	@calls=$$(grep -nE '^[[:space:]]+[^/[:space:]].*\bp256(Reduce|Row)\(' internal/field/p256.go | cut -d: -f1 | sort -n | tr '\n' ' '); \
	inlined=$$($(GO) build -gcflags=-m ./internal/field/ 2>&1 | sed -nE 's/^internal\/field\/p256\.go:([0-9]+):[0-9]+: inlining call to p256(Reduce|Row)$$/\1/p' | sort -n | tr '\n' ' '); \
	if [ -z "$$calls" ] || [ "$$calls" != "$$inlined" ]; then \
		echo "internal/field/p256.go calls p256Reduce/p256Row on lines $$calls and the compiler inlines the calls on lines $$inlined (go build -gcflags=-m ./internal/field/): keep both within the inlining budget"; exit 1; fi
	@expo=$$(find *.go bench cmd examples internal -name '*.go' ! -name '*_test.go' ! -path 'internal/telemetry/*' | xargs grep -lE '# (HELP|TYPE) ' | tr '\n' ' '); \
	if [ -n "$$expo" ]; then \
		echo "Prometheus exposition is written by internal/telemetry alone (register a family in the store, e.g. obsv.Registry.Metrics()), found # HELP/# TYPE in: $$expo"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The limb field on 32-bit words: on 386, bits.Mul64 and friends are
# emulated and big.Word is 32 bits wide, so this is the one run that
# executes internal/field (all three Montgomery widths, secp160r1's fold
# body, whose shifts split words at bit 32, P-256's shape body, and the
# two square bodies, the fold's and the shape's, whose doubling shifts
# carry bit 63 across words), the curve kernel and the SS field on it,
# and their big.Int conversions, where the native word is not 64 bits.
test-386:
	GOARCH=386 $(GO) test -short ./internal/field/ ./internal/group/ ./internal/shamir/

# Short mode keeps the race pass fast; the full chaos sweep runs
# race-free in `test` and under the detector via `make race-full`.
race:
	$(GO) test -race -short $(RACE_PKGS)

race-full:
	$(GO) test -race $(RACE_PKGS) ./internal/chaos/

# Short-fuzz smoke: every Fuzz target in FUZZ_PKGS runs for FUZZ_TIME
# (one target at a time — go test allows a single -fuzz pattern per
# invocation). Catches decode-boundary panics before they need a long
# dedicated fuzzing session.
fuzz:
	@set -e; for pkg in $(FUZZ_PKGS); do \
		for target in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target ($(FUZZ_TIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZ_TIME) $$pkg; \
		done; \
	done

# The randomized fault-injection suite at full schedule count, plus the
# kill-and-restart crash-recovery schedules, under the race detector.
chaos:
	$(GO) test -race -v -run 'TestChaos|TestCrash|TestRestart' ./internal/chaos/

# The Byzantine suite alone: equivocators, ciphertext tamperers, proof
# forgers and replayers across ~100 seeded schedules, under the race
# detector, asserting no honest party is ever blamed.
chaos-byz:
	$(GO) test -race -v -run 'TestByz|TestSubView' ./internal/chaos/

# The daemon-level chaos suite, under the race detector: real rankd
# processes, real SIGKILL — one of four daemons dies with eight
# sessions in flight and restarts on the same journals; every session
# must end byte-identical to the in-process ground truth, and SIGTERM
# must drain the mesh to clean exits.
chaos-rankd:
	$(GO) test -race -v -run 'TestChaosRankd' ./cmd/rankd/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Regenerate the committed machine-readable perf snapshot from
# instrumented real runs (same emitter as `benchtab -json`).
bench-json:
	BENCH_JSON=$(CURDIR)/BENCH_groupranking.json $(GO) test -run TestBenchSnapshot -count=1 .

# Drift gate: re-run the snapshot configurations and fail if any
# measured or model exponentiation count, message count, byte count or
# round count moved against the committed file. `go test ./...` (and so
# `make test`) runs the same gate; this target runs it alone. The
# per-configuration entries carry counts only; wall-clock numbers come
# from bench/ (bash bench/run.sh).
bench-compare:
	$(GO) test -run TestBenchSnapshot -count=1 .

# bench/ is a nested module (the BENCHMARK.json yardstick) that imports
# internal/group, elgamal, zkp and kernel directly, and a PR claiming a
# gain may not edit it: fail the root build fast when an internal
# signature it uses moves.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# A 10-party run with the per-phase observability table and the JSONL
# span trace on stderr — the quickest way to see the tracer end to end.
trace-demo:
	$(GO) run ./cmd/grouprank -n 10 -group toy-dl-256 -seed demo -metrics -trace -

# The full framework as four real OS processes over loopback TCP: one
# initiator and three participants, each running cmd/rankparty.
demo-distributed:
	$(GO) build -o $(BUILD)/rankparty ./cmd/rankparty
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 1 -attrs age:eq,activity:gt -values 30,50 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 2 -attrs age:eq,activity:gt -values 25,60 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 3 -attrs age:eq,activity:gt -values 45,90 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 0 -attrs age:eq,activity:gt -values 30,0 -weights 2,1 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 && wait

# The distributed demo with the full telemetry stack: every party serves
# an admin endpoint (scrape http://127.0.0.1:942N/metrics or /healthz
# while it runs), writes a JSONL trace, and party 2 drags its feet with
# an injected 300ms per-phase delay. The final step merges the four
# traces into one timeline — ranktrace must name party 2 the straggler.
telemetry-demo:
	$(GO) build -o $(BUILD)/rankparty ./cmd/rankparty
	$(GO) build -o $(BUILD)/ranktrace ./cmd/ranktrace
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 1 -attrs age:eq,activity:gt -values 30,50 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 -seed demo \
	  -admin 127.0.0.1:9421 -trace $(BUILD)/rank-p1.jsonl & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 2 -attrs age:eq,activity:gt -values 25,60 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 -seed demo \
	  -admin 127.0.0.1:9422 -trace $(BUILD)/rank-p2.jsonl -straggle 300ms & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 3 -attrs age:eq,activity:gt -values 45,90 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 -seed demo \
	  -admin 127.0.0.1:9423 -trace $(BUILD)/rank-p3.jsonl & \
	$(BUILD)/rankparty -addrs 127.0.0.1:9411,127.0.0.1:9412,127.0.0.1:9413,127.0.0.1:9414 \
	  -me 0 -attrs age:eq,activity:gt -values 30,0 -weights 2,1 -k 2 -d1 7 -d2 4 -h 6 -group toy-dl-256 -seed demo \
	  -admin 127.0.0.1:9424 -trace $(BUILD)/rank-p0.jsonl && wait
	$(BUILD)/ranktrace $(BUILD)/rank-p0.jsonl $(BUILD)/rank-p1.jsonl $(BUILD)/rank-p2.jsonl $(BUILD)/rank-p3.jsonl

# Ranking as a service, end to end: a 4-daemon rankd mesh over
# loopback TCP plus one client round trip through the submit/poll API
# (create at the initiator daemon, one profile per participant daemon,
# poll the result), with the one-connection-per-peer-pair telemetry
# assertion. The quickest way to see the service deployment work.
serve-demo:
	$(GO) build -o $(BUILD)/rankd ./cmd/rankd
	$(GO) build -o $(BUILD)/rankload ./cmd/rankload
	@mesh=127.0.0.1:9461,127.0.0.1:9462,127.0.0.1:9463,127.0.0.1:9464; \
	$(BUILD)/rankd -addrs $$mesh -me 0 -api 127.0.0.1:9471 -admin 127.0.0.1:9481 & p0=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 1 -api 127.0.0.1:9472 & p1=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 2 -api 127.0.0.1:9473 & p2=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 3 -api 127.0.0.1:9474 & p3=$$!; \
	sleep 1; \
	$(BUILD)/rankload -apis http://127.0.0.1:9471,http://127.0.0.1:9472,http://127.0.0.1:9473,http://127.0.0.1:9474 \
	  -sessions 1 -concurrency 1 -metrics http://127.0.0.1:9481; st=$$?; \
	kill $$p0 $$p1 $$p2 $$p3 2>/dev/null; wait; exit $$st

# The service acceptance run: 100 concurrent seeded sessions across a
# real 4-process daemon mesh, every outcome checked against the
# plaintext ground truth, throughput and p50/p99 reported, and the
# tentpole property asserted from the initiator daemon's metrics — the
# whole run used exactly ONE mesh connection per peer pair.
loadtest-smoke:
	$(GO) build -o $(BUILD)/rankd ./cmd/rankd
	$(GO) build -o $(BUILD)/rankload ./cmd/rankload
	@mesh=127.0.0.1:9401,127.0.0.1:9402,127.0.0.1:9403,127.0.0.1:9404; \
	$(BUILD)/rankd -addrs $$mesh -me 0 -api 127.0.0.1:9441 -admin 127.0.0.1:9451 & p0=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 1 -api 127.0.0.1:9442 & p1=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 2 -api 127.0.0.1:9443 & p2=$$!; \
	$(BUILD)/rankd -addrs $$mesh -me 3 -api 127.0.0.1:9444 & p3=$$!; \
	sleep 1; \
	$(BUILD)/rankload -apis http://127.0.0.1:9441,http://127.0.0.1:9442,http://127.0.0.1:9443,http://127.0.0.1:9444 \
	  -sessions 100 -concurrency 16 -metrics http://127.0.0.1:9451; st=$$?; \
	kill $$p0 $$p1 $$p2 $$p3 2>/dev/null; wait; exit $$st

clean:
	$(GO) clean ./...
	rm -rf $(BUILD)
