package palermo

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3). Each benchmark regenerates its figure as a
// text table (logged once) and reports the headline number as a benchmark
// metric, so `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// Scale: the paper measures up to 50M ORAM requests per point; benches
// default to hundreds per point (thousands of DRAM events each), which is
// where the shapes stabilize. Raise with -benchtime or the PALERMO_REQS
// environment variable for tighter numbers.

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"palermo/internal/rng"
)

func benchOpts(requests int) Options {
	if s := os.Getenv("PALERMO_REQS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			requests = v
		}
	}
	// PALERMO_WORKERS pins the sweep worker pool (0/unset = all cores,
	// 1 = serial), e.g. to compare 1-worker vs 4-worker wall-clock on
	// BenchmarkFig10_EndToEnd. Results are identical at any setting.
	workers := 0
	if s := os.Getenv("PALERMO_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			workers = v
		}
	}
	return Options{Requests: requests, Workers: workers}
}

// BenchmarkStoreOps measures the single-tree store (a 1-shard
// ShardedStore) under one synchronous caller: the serving-path baseline
// the multi-shard service is compared against (ops/s and allocs/op are
// the tracked metrics).
func BenchmarkStoreOps(b *testing.B) {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 16, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	buf := bytes.Repeat([]byte{0xA5}, BlockSize)
	populateStore(b, st, buf)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.Uint64n(1 << 16)
		if id%10 == 0 {
			if err := st.Write(id, buf); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := st.Read(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// populateStore writes every block once before the timer starts, so the
// 90/10 mix reads a loaded store. Without this the write ids (id%10 == 0)
// and read ids (everything else) are disjoint sets and every read misses
// the backend entirely — which both understates read cost and makes the
// blockfile slot read cache unmeasurable (an absent slot is not a cache
// event).
func populateStore(b *testing.B, st *ShardedStore, buf []byte) {
	b.Helper()
	for id := uint64(0); id < 1<<16; id++ {
		if err := st.Write(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPipelineDepth reads the PALERMO_PIPELINE override (0/unset = the
// config default; 1 = the serial executor) so the CI pipeline smoke and
// BENCH_pipeline.json can compare depths on identical benchmarks.
func benchPipelineDepth() int {
	if s := os.Getenv("PALERMO_PIPELINE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// benchEngine / benchCryptoWorkers read the PALERMO_ENGINE and
// PALERMO_CRYPTO_WORKERS overrides so the CI engine smoke and
// BENCH_engine.json can compare storage engines and crypto-pool widths on
// the identical benchmark: PALERMO_ENGINE picks "wal" (default) or
// "blockfile", PALERMO_CRYPTO_WORKERS sets the parallel seal/unseal pool
// (0/unset = inline crypto).
func benchEngine() string {
	if s := os.Getenv("PALERMO_ENGINE"); s != "" {
		return s
	}
	return BackendWAL
}

func benchCryptoWorkers() int {
	if s := os.Getenv("PALERMO_CRYPTO_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// BenchmarkStoreOpsDurable is BenchmarkStoreOps over a durable engine
// (PALERMO_ENGINE; WAL by default): same 90/10 read/write mix, every
// write committed under the group-commit policy. The delta against
// BenchmarkStoreOps is the durability tax the BENCH_persist.json record
// tracks; the delta between PALERMO_PIPELINE=1 and the default depth is
// the pipeline win BENCH_pipeline.json tracks; the engine and
// crypto-worker deltas are BENCH_engine.json's.
func BenchmarkStoreOpsDurable(b *testing.B) {
	slotCache := benchSlotCache()
	if benchEngine() != BackendBlockfile {
		slotCache = 0 // the cache is a blockfile feature
	}
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks:         1 << 16,
		Shards:         1,
		Engine:         benchEngine(),
		Dir:            b.TempDir(),
		PipelineDepth:  benchPipelineDepth(),
		CryptoWorkers:  benchCryptoWorkers(),
		SlotCacheBytes: slotCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	buf := bytes.Repeat([]byte{0xA5}, BlockSize)
	populateStore(b, st, buf)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := r.Uint64n(1 << 16)
		if id%10 == 0 {
			if err := st.Write(id, buf); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := st.Read(id); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	if tr := st.Traffic(); tr.SlotCacheHits+tr.SlotCacheMisses > 0 {
		b.ReportMetric(float64(tr.SlotCacheHits)/float64(tr.SlotCacheHits+tr.SlotCacheMisses)*100, "slot_cache_hit_pct")
	}
}

// BenchmarkShardedStoreOps measures the concurrent service layer at 1, 2,
// and 4 shards under GOMAXPROCS parallel closed-loop clients. On a 4-core
// runner, 4 shards should deliver >= 2x the 1-shard ops/s (the serving-path
// analogue of Fig 11's request-level-parallelism scaling).
func BenchmarkShardedStoreOps(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 16, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			var clientSeq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// b.Error, not b.Fatal: Fatal must not run off the
				// benchmark goroutine.
				r := rng.New(1000 + clientSeq.Add(1))
				buf := bytes.Repeat([]byte{0x5A}, BlockSize)
				for pb.Next() {
					id := r.Uint64n(1 << 16)
					if id%10 == 0 {
						if err := st.Write(id, buf); err != nil {
							b.Error(err)
							return
						}
					} else {
						if _, err := st.Read(id); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// benchTreeTopLevels / benchPrefetch read the PALERMO_TREETOP and
// PALERMO_PREFETCH overrides (mirroring PALERMO_PIPELINE) so the CI bench
// smoke and BENCH_prefetch.json can compare serving configurations on the
// identical benchmark: PALERMO_TREETOP pins the resident tree-top depth
// (0/unset = byte-budget default), PALERMO_PREFETCH=1 turns the
// batch-admission planner on.
func benchTreeTopLevels() int {
	if s := os.Getenv("PALERMO_TREETOP"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

func benchPrefetch() bool {
	return os.Getenv("PALERMO_PREFETCH") == "1"
}

// benchPrefetchDepth / benchSlotCache read the PALERMO_PREFETCH_DEPTH and
// PALERMO_SLOT_CACHE overrides so the CI bench smoke and the BENCH records
// can sweep the deep planner's look-ahead (batches; 0/unset = the
// one-batch default) and the blockfile slot read-cache budget (bytes per
// shard; 0/unset = cache off) on the identical benchmarks.
func benchPrefetchDepth() int {
	if s := os.Getenv("PALERMO_PREFETCH_DEPTH"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

func benchSlotCache() int {
	if s := os.Getenv("PALERMO_SLOT_CACHE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 0
}

// BenchmarkShardedServing is the serving-path configuration benchmark:
// GOMAXPROCS closed-loop clients issuing Zipf-skewed (θ=0.99) 8-id read
// batches with a 10% write mix against 4 shards — the workload the
// tree-top cache and prefetch planner are built for. Sweep it with
// PALERMO_TREETOP / PALERMO_PREFETCH / PALERMO_PIPELINE to regenerate
// BENCH_prefetch.json and the EXPERIMENTS.md table.
func BenchmarkShardedServing(b *testing.B) {
	st, err := NewShardedStore(ShardedStoreConfig{
		Blocks: 1 << 16, Shards: 4,
		PipelineDepth: benchPipelineDepth(),
		TreeTopLevels: benchTreeTopLevels(),
		Prefetch:      benchPrefetch(),
		PrefetchDepth: benchPrefetchDepth(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var clientSeq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(2000 + clientSeq.Add(1))
		z := rng.NewZipf(r, 1<<16, 0.99)
		buf := bytes.Repeat([]byte{0x3C}, BlockSize)
		ids := make([]uint64, 8)
		for pb.Next() {
			if r.Uint64n(10) == 0 {
				if err := st.Write(z.Next(), buf); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			for i := range ids {
				ids[i] = z.Next()
			}
			if _, err := st.ReadBatch(ids); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	tr := st.Traffic()
	if ops := tr.Reads + tr.Writes; ops > 0 {
		b.ReportMetric(float64(tr.DRAMReads+tr.DRAMWrites)/float64(ops), "dram_lines/op")
		b.ReportMetric(float64(tr.TreeTopHits)/float64(ops), "treetop_hits/op")
	}
	if tr.PrefetchIssued > 0 {
		b.ReportMetric(float64(tr.PrefetchUsed)/float64(tr.PrefetchIssued)*100, "prefetch_used_pct")
	}
}

func BenchmarkFig03_RingBandwidth(b *testing.B) {
	var sync float64
	for i := 0; i < b.N; i++ {
		res, err := Fig3(benchOpts(600))
		if err != nil {
			b.Fatal(err)
		}
		sync = res.SyncTotal()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(sync*100, "sync_pct") // paper: 72.4
}

func BenchmarkFig04_PrefetchDummies(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := Fig4(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range res.PrDummy {
			if d > peak {
				peak = d
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(peak*100, "peak_dummy_pct") // paper: 77.3 at pf=4
}

func BenchmarkFig09_SecurityLatency(b *testing.B) {
	var worstMI float64
	for i := 0; i < b.N; i++ {
		res, err := Fig9(benchOpts(2500))
		if err != nil {
			b.Fatal(err)
		}
		worstMI = 0
		for _, row := range res.Rows {
			if row.MutualInfo > worstMI {
				worstMI = row.MutualInfo
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(worstMI, "worst_mutual_info_bits") // paper: <= 0.006
}

func BenchmarkFig10_EndToEnd(b *testing.B) {
	var palermoGM, pfGM float64
	for i := 0; i < b.N; i++ {
		res, err := Fig10(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		for p, proto := range res.Protocols {
			switch proto {
			case ProtoPalermo:
				palermoGM = res.GMean[p]
			case ProtoPalermoPF:
				pfGM = res.GMean[p]
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(palermoGM, "palermo_gmean_x") // paper: 2.4
	b.ReportMetric(pfGM, "palermo_pf_gmean_x")   // paper: 3.1
}

func BenchmarkFig11_Parallelism(b *testing.B) {
	var outR, bwR float64
	for i := 0; i < b.N; i++ {
		res, err := Fig11(benchOpts(600))
		if err != nil {
			b.Fatal(err)
		}
		outR, bwR = res.Ratios()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(outR, "outstanding_ratio_x") // paper: 2.8
	b.ReportMetric(bwR, "bandwidth_ratio_x")    // paper: 2.2
}

func BenchmarkFig12_StashBound(b *testing.B) {
	var worst int
	for i := 0; i < b.N; i++ {
		res, err := Fig12(benchOpts(1000))
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, m := range res.Max {
			if m > worst {
				worst = m
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(float64(worst), "max_stash_tags") // paper: 228-237 < 256
}

func BenchmarkFig13_PrefetchSweep(b *testing.B) {
	var llmBest float64
	for i := 0; i < b.N; i++ {
		res, err := Fig13(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		for w, wl := range res.Workloads {
			if wl != "llm" {
				continue
			}
			for _, v := range res.Speedup[w] {
				if v > llmBest {
					llmBest = v
				}
			}
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(llmBest, "llm_best_speedup_x") // paper: ~4.3 at pf=8
}

func BenchmarkFig14a_SweepZ(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := Fig14a(benchOpts(400))
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Speedup[2] // (16,27,20), the adopted configuration
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "z16_speedup_x") // paper: up to 1.8
}

func BenchmarkFig14b_SweepPE(b *testing.B) {
	var at8 float64
	for i := 0; i < b.N; i++ {
		res, err := Fig14b(benchOpts(400))
		if err != nil {
			b.Fatal(err)
		}
		at8 = res.Speedup[3]
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(at8, "pe8_speedup_x") // paper: ~2.2
}

func BenchmarkFig15_AreaPower(b *testing.B) {
	var area, power float64
	for i := 0; i < b.N; i++ {
		m := Fig15(8)
		area, power = m.TotalArea(), m.TotalPower()
		if i == 0 {
			b.Log("\n" + m.String())
		}
	}
	b.ReportMetric(area, "area_mm2") // paper: 5.78
	b.ReportMetric(power, "power_w") // paper: 2.14
}

func BenchmarkTab02_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := TableII()
		if i == 0 {
			b.Log("\n" + s + TableIII())
		}
	}
}

func BenchmarkAblation_ERHoisting(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationHoisting(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "hoisting_gain_x")
}

func BenchmarkAblation_TreeTopCache(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationTreeTop(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "treetop_gain_x")
}

func BenchmarkAblation_SWGranularity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := AblationCommitGranularity(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain()
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
	b.ReportMetric(gain, "fine_sw_gain_x")
}

func BenchmarkExt_PathMesh(b *testing.B) {
	var pathG, ringG float64
	for i := 0; i < b.N; i++ {
		pg, rg, err := AblationPathMesh(benchOpts(500))
		if err != nil {
			b.Fatal(err)
		}
		pathG, ringG = pg.Gain(), rg.Gain()
		if i == 0 {
			b.Log("\n" + pg.String() + "\n" + rg.String())
		}
	}
	b.ReportMetric(pathG, "path_mesh_gain_x") // §IV-E: limited
	b.ReportMetric(ringG, "ring_mesh_gain_x") // §IV-E: large
}

func BenchmarkExt_TenantIsolation(b *testing.B) {
	var mi float64
	for i := 0; i < b.N; i++ {
		rep, err := TenantIsolation(benchOpts(2000))
		if err != nil {
			b.Fatal(err)
		}
		mi = rep.MutualInfo
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
	b.ReportMetric(mi, "tenant_mi_bits") // §VI: ~0
}
