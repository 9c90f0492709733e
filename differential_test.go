package palermo

// Differential testing: every protocol engine — whatever its tree shape,
// eviction discipline, or bypass tricks — implements the same logical
// memory. Feeding the same operation sequence to all of them must produce
// identical read results, or one of the designs corrupts data. The same
// discipline extends up the stack: the network serving path
// (Client → wire → netserve → ShardedStore) must be indistinguishable
// from calling the store in-process, payload for payload and leaf for
// leaf (TestNetDifferentialEquivalence).

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"palermo/internal/baselines"
	"palermo/internal/oram"
	"palermo/internal/rng"
	"palermo/internal/shard"
)

func allEngines(t *testing.T, lines uint64) map[string]oram.Engine {
	t.Helper()
	engines := make(map[string]oram.Engine)

	pathCfg := oram.DefaultPathConfig()
	pathCfg.NLines = lines
	path, err := oram.NewPath(pathCfg)
	if err != nil {
		t.Fatal(err)
	}
	engines["PathORAM"] = path

	for name, cfgFn := range map[string]func() oram.RingConfig{
		"RingORAM-classic":   oram.DefaultRingConfig,
		"RingORAM-bandwidth": oram.BandwidthRingConfig,
		"Palermo":            oram.PalermoRingConfig,
	} {
		cfg := cfgFn()
		cfg.NLines = lines
		ring, err := oram.NewRing(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = ring
	}

	page, err := baselines.NewPageORAM(lines, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["PageORAM"] = page

	pro, err := baselines.NewPrORAM(lines, 4, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["PrORAM"] = pro

	ir, err := baselines.NewIRORAM(lines, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines["IR-ORAM"] = ir

	return engines
}

func TestProtocolFunctionalEquivalence(t *testing.T) {
	const lines = 1 << 13
	engines := allEngines(t, lines)

	// A mixed op sequence with heavy reuse so stash hits, evictions,
	// reshuffles, prefetch groups, and bypasses all trigger.
	r := rng.New(1234)
	type op struct {
		pa    uint64
		write bool
		val   uint64
	}
	ops := make([]op, 4000)
	for i := range ops {
		ops[i] = op{
			pa:    r.Uint64n(lines / 4), // quarter of the space: strong reuse
			write: r.Float64() < 0.4,
			val:   r.Uint64(),
		}
	}

	ref := make(map[uint64]uint64)
	expected := make([]uint64, len(ops)) // expected read results (0 if write)
	for i, o := range ops {
		if o.write {
			ref[o.pa] = o.val
		} else {
			expected[i] = ref[o.pa]
		}
	}

	for name, e := range engines {
		for i, o := range ops {
			plan := e.Access(o.pa, o.write, o.val)
			if !o.write && plan.Val != expected[i] {
				t.Fatalf("%s diverged at op %d: read PA %d = %d, want %d",
					name, i, o.pa, plan.Val, expected[i])
			}
		}
		// Every engine must also hold the stash bound through the sequence.
		for l := 0; l < e.Levels(); l++ {
			if m := e.StashMax(l); m > 1024 {
				t.Fatalf("%s level %d stash peaked at %d", name, l, m)
			}
		}
	}
}

// storeAPI is the operation surface shared by *ShardedStore and *Client:
// the differential net test drives both through it with one recorded
// sequence.
type storeAPI interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, blocks [][]byte) error
}

// netOp is one recorded operation of the differential sequence.
type netOp struct {
	kind   int // 0 read, 1 write, 2 readBatch, 3 writeBatch
	id     uint64
	ids    []uint64
	blocks [][]byte
}

// recordNetOps builds a deterministic mixed sequence with id reuse and
// intra-batch duplicates, so stash hits, dedup fan-outs, and per-shard
// batching all trigger on both sides.
func recordNetOps(blocks uint64, n int) []netOp {
	r := rng.New(20250729)
	ops := make([]netOp, n)
	for i := range ops {
		switch r.Uint64n(4) {
		case 0:
			ops[i] = netOp{kind: 0, id: r.Uint64n(blocks / 4)}
		case 1:
			ops[i] = netOp{kind: 1, id: r.Uint64n(blocks / 4)}
		case 2:
			ids := make([]uint64, 1+r.Uint64n(8))
			for j := range ids {
				if j > 0 && r.Uint64n(3) == 0 {
					ids[j] = ids[j-1] // duplicate: exercises batch dedup
				} else {
					ids[j] = r.Uint64n(blocks / 4)
				}
			}
			ops[i] = netOp{kind: 2, ids: ids}
		default:
			ids := make([]uint64, 1+r.Uint64n(4))
			bls := make([][]byte, len(ids))
			for j := range ids {
				ids[j] = r.Uint64n(blocks / 4)
				bls[j] = block(byte(r.Uint64()))
			}
			ops[i] = netOp{kind: 3, ids: ids, blocks: bls}
		}
	}
	return ops
}

// playNetOps runs the sequence serially and returns every read payload in
// order. Serial submission means both sides see identical per-shard
// request subsequences, so the §5 determinism contract forces identical
// leaf traces if the layers in between add nothing.
func playNetOps(t *testing.T, api storeAPI, ops []netOp) [][]byte {
	t.Helper()
	return playNetOpsFrom(t, api, ops, 0)
}

// playNetOpsFrom plays a tail of a recorded sequence: base is the index
// of ops[0] in the full recording, so write payloads (derived from the
// global op index) match a reference run that played the whole sequence.
// The cluster differential test uses it to split one sequence around a
// live migration.
func playNetOpsFrom(t *testing.T, api storeAPI, ops []netOp, base int) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i, op := range ops {
		i += base
		switch op.kind {
		case 0:
			data, err := api.Read(op.id)
			if err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			payloads = append(payloads, data)
		case 1:
			if err := api.Write(op.id, block(byte(i))); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
		case 2:
			got, err := api.ReadBatch(op.ids)
			if err != nil {
				t.Fatalf("op %d readBatch: %v", i, err)
			}
			payloads = append(payloads, got...)
		default:
			if err := api.WriteBatch(op.ids, op.blocks); err != nil {
				t.Fatalf("op %d writeBatch: %v", i, err)
			}
		}
	}
	return payloads
}

// TestNetDifferentialEquivalence runs one recorded op sequence against an
// in-process ShardedStore and against an identically-seeded store behind
// Client → wire → netserve over a loopback socket, and demands the two
// paths be indistinguishable: byte-identical read payloads, identical
// service op counts, and identical per-shard leaf traces. Run under
// -race, this is also the concurrency audit of the whole network stack.
func TestNetDifferentialEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	cfg := ShardedStoreConfig{Blocks: blocks, Shards: shards, Seed: 77}
	ops := recordNetOps(blocks, 400)

	// In-process reference run.
	local, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range local.engines() {
		sh.EnableTrace()
	}
	wantPayloads := playNetOps(t, local, ops)
	wantStats := local.Stats()
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}

	// Network run: same store geometry behind a loopback server.
	remoteStore, err := NewShardedStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range remoteStore.engines() {
		sh.EnableTrace()
	}
	srv, err := NewServer(remoteStore, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	cl, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Blocks() != blocks || cl.Shards() != shards {
		t.Fatalf("handshake geometry: %d blocks, %d shards", cl.Blocks(), cl.Shards())
	}
	gotPayloads := playNetOps(t, cl, ops)
	gotStats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if err := remoteStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identical payloads, op for op.
	if len(gotPayloads) != len(wantPayloads) {
		t.Fatalf("network path returned %d read payloads, in-process %d", len(gotPayloads), len(wantPayloads))
	}
	for i := range wantPayloads {
		if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
			t.Fatalf("read payload %d diverged between in-process and network paths", i)
		}
	}
	// Identical service op counts (the Stats op itself is not counted).
	if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
		gotStats.DedupHits != wantStats.DedupHits {
		t.Fatalf("stats diverged: net %d/%d/%d, in-process %d/%d/%d",
			gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
			wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
	}
	// Identical per-shard engine traces: same ops, same order, same leaves.
	for i := range local.engines() {
		want, got := local.engines()[i].Trace(), remoteStore.engines()[i].Trace()
		if len(want.Ops) == 0 {
			t.Fatalf("shard %d served nothing", i)
		}
		if len(got.Ops) != len(want.Ops) {
			t.Fatalf("shard %d: net path served %d engine ops, in-process %d", i, len(got.Ops), len(want.Ops))
		}
		for j := range want.Ops {
			if got.Ops[j] != want.Ops[j] {
				t.Fatalf("shard %d: op %d diverged (%+v != %+v)", i, j, got.Ops[j], want.Ops[j])
			}
			if got.Leaves[j] != want.Leaves[j] {
				t.Fatalf("shard %d: leaf %d diverged (%d != %d)", i, j, got.Leaves[j], want.Leaves[j])
			}
		}
	}
}

// TestPipelinedVsSerialEquivalence is the pipeline's determinism
// contract: the same recorded op sequence through a ShardedStore at
// PipelineDepth 1 (the serial executor) and at the default depth must be
// indistinguishable — byte-identical read payloads, identical service op
// counts and dedup hits, and identical per-shard engine traces (same ops,
// same order, same exposed leaves). The crypto pool rides the same
// contract: CryptoWorkers 1 and 4 offload seal/unseal to worker
// goroutines, and nothing observable may move. Run under -race this also
// audits the worker/I/O-goroutine/crypto-pool split.
func TestPipelinedVsSerialEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	ops := recordNetOps(blocks, 400)

	play := func(depth, cryptoWorkers int) (payloads [][]byte, stats ServiceStats, traces []*shard.Trace) {
		t.Helper()
		cfg := ShardedStoreConfig{
			Blocks: blocks, Shards: shards, Seed: 77,
			PipelineDepth: depth, CryptoWorkers: cryptoWorkers,
		}
		st, err := NewShardedStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.engines() {
			sh.EnableTrace()
		}
		payloads = playNetOps(t, st, ops)
		stats = st.Stats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.engines() {
			traces = append(traces, sh.Trace())
		}
		return payloads, stats, traces
	}

	wantPayloads, wantStats, wantTraces := play(1, 0)
	for _, tc := range []struct {
		depth, workers int
	}{
		{0, 0}, // 0 = the default depth (2), inline crypto
		{0, 1}, // single crypto worker: ordering without parallelism
		{0, 4}, // worker pool (capped at GOMAXPROCS internally)
	} {
		name := fmt.Sprintf("depth=%d,cryptoWorkers=%d", tc.depth, tc.workers)
		gotPayloads, gotStats, gotTraces := play(tc.depth, tc.workers)

		if len(gotPayloads) != len(wantPayloads) {
			t.Fatalf("%s: returned %d read payloads, serial %d", name, len(gotPayloads), len(wantPayloads))
		}
		for i := range wantPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("%s: read payload %d diverged from the serial executor", name, i)
			}
		}
		if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
			gotStats.DedupHits != wantStats.DedupHits {
			t.Fatalf("%s: stats diverged: %d/%d/%d, serial %d/%d/%d",
				name, gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
				wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
		}
		for i := range wantTraces {
			want, got := wantTraces[i], gotTraces[i]
			if len(want.Ops) == 0 {
				t.Fatalf("shard %d served nothing", i)
			}
			if len(got.Ops) != len(want.Ops) {
				t.Fatalf("%s: shard %d served %d engine ops, serial %d", name, i, len(got.Ops), len(want.Ops))
			}
			for j := range want.Ops {
				if got.Ops[j] != want.Ops[j] {
					t.Fatalf("%s: shard %d: op %d diverged (%+v != %+v)", name, i, j, got.Ops[j], want.Ops[j])
				}
				if got.Leaves[j] != want.Leaves[j] {
					t.Fatalf("%s: shard %d: leaf %d diverged (%d != %d)", name, i, j, got.Leaves[j], want.Leaves[j])
				}
			}
		}
	}
}

// TestPipelinedDurableEquivalence extends the contract through the
// durable backends and across a restart: identical workloads at depth 1
// and depth 4 (small CheckpointEvery and GroupCommit so compactions and
// commits fire mid-run), across every engine in {wal, blockfile} and
// CryptoWorkers in {0, 1, 4}, must leave directories that recover to
// identical stores — same payloads, same traffic counters, and identical
// engine behavior for a post-recovery op sequence. The engine and worker
// count may change what the bytes on disk look like, never what they
// mean.
func TestPipelinedDurableEquivalence(t *testing.T) {
	const blocks = 1 << 10
	run := func(engine string, depth, cryptoWorkers, slotCache int) (dir string) {
		t.Helper()
		dir = t.TempDir()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: 1, Engine: engine, Dir: dir, Seed: 9,
			CheckpointEvery: 32, GroupCommit: 4,
			PipelineDepth: depth, CryptoWorkers: cryptoWorkers,
			SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(321)
		for i := 0; i < 300; i++ {
			id := r.Uint64n(blocks / 2)
			if r.Uint64n(3) == 0 {
				if _, err := st.Read(id); err != nil {
					t.Fatal(err)
				}
			} else if err := st.Write(id, block(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	reopen := func(dir, engine string, depth, slotCache int) (rep TrafficReport, payloads [][]byte) {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: 1, Engine: engine, Dir: dir, Seed: 9, PipelineDepth: depth,
			SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Post-recovery ops keep exercising the recovered engine state.
		for i := 0; i < 50; i++ {
			data, err := st.Read(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		rep = st.Traffic()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return rep, payloads
	}

	serialDir := run(BackendWAL, 1, 0, 0)
	wantRep, wantPayloads := reopen(serialDir, BackendWAL, 1, 0)
	for _, tc := range []struct {
		engine    string
		workers   int
		slotCache int
	}{
		{BackendWAL, 0, 0},
		{BackendWAL, 1, 0},
		{BackendWAL, 4, 0},
		{BackendBlockfile, 0, 0},
		{BackendBlockfile, 1, 0},
		{BackendBlockfile, 4, 0},
		// Slot read cache on: the blockfile serves hot slots from memory.
		// Byte-identical payloads and protocol counters; only the
		// SlotCacheHits/Misses telemetry may be nonzero.
		{BackendBlockfile, 0, 64 << 10},
		{BackendBlockfile, 4, 4 << 10}, // tiny budget: CLOCK eviction churns mid-run
	} {
		engine, workers := tc.engine, tc.workers
		name := fmt.Sprintf("engine=%s,cryptoWorkers=%d,slotCache=%d", engine, workers, tc.slotCache)
		dir := run(engine, 4, workers, tc.slotCache)
		gotRep, gotPayloads := reopen(dir, engine, 4, tc.slotCache)
		if tc.slotCache > 0 {
			// The cache is pure telemetry at the protocol level: zero the
			// counters for the struct compare, but demand the cache actually
			// served something (otherwise the row tests nothing).
			if gotRep.SlotCacheHits+gotRep.SlotCacheMisses == 0 {
				t.Fatalf("%s: slot cache enabled but never touched", name)
			}
			gotRep.SlotCacheHits, gotRep.SlotCacheMisses = 0, 0
		}
		if wantRep != gotRep {
			t.Fatalf("%s: recovered traffic diverged:\n serial wal %+v\n got        %+v", name, wantRep, gotRep)
		}
		for i := range wantPayloads {
			if !bytes.Equal(wantPayloads[i], gotPayloads[i]) {
				t.Fatalf("%s: post-recovery read %d diverged from the serial WAL baseline", name, i)
			}
		}
		// Cross-recovery: a serial store must be able to reopen the
		// pipelined executor's directory (the on-disk contract is
		// shared). Counters keep growing across reopens, so compare the
		// stable parts: the write count and the logical payloads. Reopening
		// a cache-written directory with the cache off (and vice versa)
		// must be equally lossless: the cache never touches the format.
		crossRep, crossPayloads := reopen(dir, engine, 1, 0)
		if crossRep.Writes != wantRep.Writes {
			t.Fatalf("%s: cross-depth recovery lost writes: want %d, got %d", name, wantRep.Writes, crossRep.Writes)
		}
		for i := range wantPayloads {
			if !bytes.Equal(wantPayloads[i], crossPayloads[i]) {
				t.Fatalf("%s: cross-depth read %d diverged", name, i)
			}
		}
	}
}

// TestCachePrefetchEquivalence is the protocol-neutrality contract for
// this PR's serving-path optimizations: the same recorded op sequence
// through a baseline pipelined ShardedStore and through every tree-top ×
// prefetch configuration must be indistinguishable at the protocol level
// — byte-identical read payloads, identical service op counts, and
// identical per-shard engine traces (same ops, same order, same exposed
// leaves). Only the DRAM traffic split may differ: cached levels move
// lines from DRAMReads/DRAMWrites into TreeTopHits, and the accounting
// identity (emitted + absorbed == baseline) must hold exactly.
func TestCachePrefetchEquivalence(t *testing.T) {
	const blocks = 1 << 12
	const shards = 3
	ops := recordNetOps(blocks, 400)

	play := func(treetop int, prefetch bool, depth int) (payloads [][]byte, stats ServiceStats, traces []*shard.Trace, rep TrafficReport) {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: shards, Seed: 77,
			PipelineDepth: 4, TreeTopLevels: treetop,
			Prefetch: prefetch, PrefetchDepth: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.engines() {
			sh.EnableTrace()
		}
		payloads = playNetOps(t, st, ops)
		stats = st.Stats()
		rep = st.Traffic()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.engines() {
			traces = append(traces, sh.Trace())
		}
		return payloads, stats, traces, rep
	}

	wantPayloads, wantStats, wantTraces, wantRep := play(0, false, 0)
	baselineMoved := wantRep.DRAMReads + wantRep.DRAMWrites + wantRep.TreeTopHits
	for _, tc := range []struct {
		treetop  int
		prefetch bool
		depth    int
	}{
		{4, false, 0},
		{0, true, 0},
		{6, true, 0},
		// Deep planner rows: look-ahead across queued batches. The planner
		// may only move backend Gets earlier — never a leaf, payload, or
		// count.
		{0, true, 4},
		{6, true, 4},
		{0, true, 64}, // max depth: backlog deeper than the queue ever gets
	} {
		gotPayloads, gotStats, gotTraces, gotRep := play(tc.treetop, tc.prefetch, tc.depth)
		name := fmt.Sprintf("treetop=%d,prefetch=%v,depth=%d", tc.treetop, tc.prefetch, tc.depth)
		for i := range wantPayloads {
			if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
				t.Fatalf("%s: read payload %d diverged from baseline", name, i)
			}
		}
		if gotStats.Reads != wantStats.Reads || gotStats.Writes != wantStats.Writes ||
			gotStats.DedupHits != wantStats.DedupHits {
			t.Fatalf("%s: service counts diverged: %d/%d/%d vs baseline %d/%d/%d",
				name, gotStats.Reads, gotStats.Writes, gotStats.DedupHits,
				wantStats.Reads, wantStats.Writes, wantStats.DedupHits)
		}
		for i := range wantTraces {
			want, got := wantTraces[i], gotTraces[i]
			if len(got.Ops) != len(want.Ops) {
				t.Fatalf("%s: shard %d served %d engine ops, baseline %d", name, i, len(got.Ops), len(want.Ops))
			}
			for j := range want.Ops {
				if got.Ops[j] != want.Ops[j] || got.Leaves[j] != want.Leaves[j] {
					t.Fatalf("%s: shard %d op %d diverged from baseline", name, i, j)
				}
			}
		}
		// Total protocol lines are invariant; only their DRAM/absorbed
		// split moves, and a deeper pinned top absorbs at least as much.
		if moved := gotRep.DRAMReads + gotRep.DRAMWrites + gotRep.TreeTopHits; moved != baselineMoved {
			t.Fatalf("%s: protocol line total %d != baseline %d (absorption must be exact)",
				name, moved, baselineMoved)
		}
		// A pinned top absorbs at least what the byte-budget default does
		// (at this small tree the budget already covers every level, so
		// equality is the expected ceiling — the shrink curve itself is
		// TestTreeTopLevelsNeutral's job).
		if tc.treetop >= 6 && gotRep.TreeTopHits < wantRep.TreeTopHits {
			t.Fatalf("%s: pinned top absorbed %d lines, baseline budget absorbed %d",
				name, gotRep.TreeTopHits, wantRep.TreeTopHits)
		}
		if tc.prefetch && gotRep.PrefetchUsed == 0 {
			t.Fatalf("%s: prefetch enabled but never used", name)
		}
	}
}

// TestDurableMixedConfigReopen: the durable format is config-neutral. A
// directory written under one tree-top/prefetch configuration must reopen
// bit-exact under any other — same recovered payloads, same recovered
// engine behavior for a post-recovery op sequence — because neither
// feature touches protocol state, only how its traffic is served.
func TestDurableMixedConfigReopen(t *testing.T) {
	const blocks = 1 << 10
	dir := t.TempDir()
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: blocks, Shards: 2, Seed: 13,
		Engine: BackendWAL, Dir: dir, CheckpointEvery: 32, GroupCommit: 4,
		PipelineDepth: 4, TreeTopLevels: 4, Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	wrote := make(map[uint64]byte)
	for i := 0; i < 300; i++ {
		id := r.Uint64n(blocks)
		b := byte(i)
		if err := st.Write(id, block(b)); err != nil {
			t.Fatal(err)
		}
		wrote[id] = b
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(treetop int, prefetch bool, depth, prefetchDepth int) [][]byte {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: 2, Seed: 13,
			Engine: BackendWAL, Dir: dir,
			PipelineDepth: depth, TreeTopLevels: treetop,
			Prefetch: prefetch, PrefetchDepth: prefetchDepth,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id, b := range wrote {
			got, err := st.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, block(b)) {
				t.Fatalf("treetop=%d prefetch=%v: block %d lost its payload across reopen", treetop, prefetch, id)
			}
		}
		// A deterministic post-recovery sequence probes the recovered
		// engine state beyond the stamped blocks.
		var payloads [][]byte
		for i := uint64(0); i < 64; i++ {
			data, err := st.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return payloads
	}

	want := reopen(0, false, 1, 0) // serial baseline reopens the optimized dir
	for _, tc := range []struct {
		treetop       int
		prefetch      bool
		depth         int
		prefetchDepth int
	}{
		{4, true, 4, 0},
		{6, false, 2, 0},
		// Deep planner reopens: look-ahead is serving-path-only and must
		// leave recovery untouched.
		{4, true, 4, 4},
		{0, true, 2, 8},
	} {
		got := reopen(tc.treetop, tc.prefetch, tc.depth, tc.prefetchDepth)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("treetop=%d prefetch=%v prefetchDepth=%d: post-recovery read %d diverged",
					tc.treetop, tc.prefetch, tc.prefetchDepth, i)
			}
		}
	}

	// Blockfile half: a directory written with the slot read cache on must
	// reopen bit-exact with the cache off, and vice versa — the cache holds
	// only copies of committed ciphertext and never touches the format.
	bfDir := t.TempDir()
	bfReopen := func(slotCache int, stamp bool) [][]byte {
		t.Helper()
		st, err := NewShardedStore(ShardedStoreConfig{
			Blocks: blocks, Shards: 2, Seed: 13,
			Engine: BackendBlockfile, Dir: bfDir, CheckpointEvery: 32, GroupCommit: 4,
			PipelineDepth: 4, SlotCacheBytes: slotCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stamp {
			for id, b := range wrote {
				if err := st.Write(id, block(b)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var payloads [][]byte
		for i := uint64(0); i < 64; i++ {
			data, err := st.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, data)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return payloads
	}
	bfWant := bfReopen(64<<10, true) // written with cache on
	for _, slotCache := range []int{0, 64 << 10, 4 << 10} {
		got := bfReopen(slotCache, false)
		for i := range bfWant {
			if !bytes.Equal(got[i], bfWant[i]) {
				t.Fatalf("blockfile slotCache=%d: post-recovery read %d diverged", slotCache, i)
			}
		}
	}
}

// TestDifferentialTrafficDiversity sanity-checks that the engines really
// are different designs: their total traffic for the same op sequence must
// differ (otherwise the equivalence test proves nothing).
func TestDifferentialTrafficDiversity(t *testing.T) {
	const lines = 1 << 13
	engines := allEngines(t, lines)
	r := rng.New(7)
	traffic := make(map[string]int)
	for name, e := range engines {
		total := 0
		rr := rng.New(7)
		_ = r
		for i := 0; i < 300; i++ {
			p := e.Access(rr.Uint64n(lines), false, 0)
			total += p.Reads() + p.Writes()
		}
		traffic[name] = total
	}
	seen := map[int]string{}
	distinct := 0
	for name, tr := range traffic {
		if _, dup := seen[tr]; !dup {
			distinct++
		}
		seen[tr] = name
	}
	if distinct < 4 {
		t.Fatalf("only %d distinct traffic profiles across engines: %v", distinct, traffic)
	}
}
