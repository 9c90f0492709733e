package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"palermo"
)

// layerMetric is one per-layer metric and the end-to-end metric (and
// workload) it should move; the --trace 1 run prints the pairing.
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"gen.late_p50_us", "us", "lower", "validity of read_p50_us on net-zipf-r95 (generator slack, not server time)"},
	{"gen.late_p99_us", "us", "lower", "validity of read_p99_us on net-zipf-r95"},
	{"gen.inflight_max", "count", "lower", "validity of max_rate_ops_s on net-zipf-r95 (backlog)"},
	{"client.call_p50_us", "us", "lower", "read_p50_us on net-zipf-r95"},
	{"client.call_p99_us", "us", "lower", "read_p99_us on net-zipf-r95"},
	{"client.frames_per_op", "frames/op", "lower", "cpu_us_per_op and max_rate_ops_s on net-zipf-r95"},
	{"client.merged_ratio", "ratio", "higher", "cpu_us_per_op and max_rate_ops_s on net-zipf-r95"},
	{"client.self_us_mean", "us", "lower", "read_p50_us on net-zipf-r95"},
	{"netserve.store_call_p50_us", "us", "lower", "read_p50_us on net-zipf-r95"},
	{"netserve.store_call_p99_us", "us", "lower", "read_p99_us on net-zipf-r95"},
	{"netserve.ops_per_frame", "ops/frame", "higher", "cpu_us_per_op on net-zipf-r95"},
	{"serve.call_p50_us", "us", "lower", "read_p50_us on local-uniform-r90"},
	{"serve.call_p99_us", "us", "lower", "read_p99_us on local-uniform-r90 and local-uniform-w80"},
	{"serve.dedup_ratio", "ratio", "higher", "cpu_us_per_op on net-zipf-r95 (about 0 on the uniform workloads)"},
	{"serve.queue_wait_mean_us", "us", "lower", "read_p99_us on every workload"},
	{"serve.sheds", "count", "lower", "ok_ratio on every workload"},
	{"serve.self_us_mean", "us", "lower", "read_p50_us on the local workloads"},
	{"shard.begin_p50_us", "us", "lower", "ops_s and cpu_us_per_op on both local workloads"},
	{"shard.begin_p99_us", "us", "lower", "ops_s and cpu_us_per_op on both local workloads"},
	{"shard.wait_p50_us", "us", "lower", "read_p50_us on local-uniform-r90"},
	{"shard.wait_p99_us", "us", "lower", "read_p99_us on local-uniform-r90"},
	{"shard.busy_frac", "ratio", "lower", "max_rate_ops_s on net-zipf-r95"},
	{"oram.lines_per_op", "lines/op", "lower", "blockfile.get_lines_per_op once the backend holds the tree"},
	{"oram.treetop_hit_ratio", "ratio", "higher", "blockfile.get_lines_per_op once the backend holds the tree"},
	{"oram.stash_peak", "blocks", "lower", "peak_rss_mib on every workload"},
	{"blockfile.get_calls_per_op", "calls/op", "lower", "read_p50_us on local-uniform-r90"},
	{"blockfile.get_lines_per_op", "lines/op", "lower", "disk_read_bytes_per_op and read_p50_us on local-uniform-r90"},
	{"blockfile.get_p50_us", "us", "lower", "read_p50_us on local-uniform-r90"},
	{"blockfile.get_p99_us", "us", "lower", "read_p99_us on local-uniform-r90"},
	{"blockfile.put_calls_per_op", "calls/op", "lower", "write_p99_us on local-uniform-w80"},
	{"blockfile.put_lines_per_op", "lines/op", "lower", "disk_write_bytes_per_op and write_p99_us on local-uniform-w80"},
	{"blockfile.put_p99_us", "us", "lower", "write_p99_us on local-uniform-w80"},
	{"blockfile.fsyncs_per_op", "fsyncs/op", "lower", "write_p99_us and ops_s on local-uniform-w80"},
	{"blockfile.fsync_mean_us", "us", "lower", "write_p99_us on local-uniform-w80"},
	{"blockfile.checkpoints", "count", "lower", "write_p99_us on local-uniform-w80"},
	{"blockfile.checkpoint_max_ms", "ms", "lower", "write_p99_us on local-uniform-w80"},
	{"blockfile.busy_frac", "ratio", "lower", "ops_s on both local workloads"},
	{"os.read_bytes_per_op", "B/op", "lower", "disk_read_bytes_per_op on local-uniform-r90"},
	{"os.syscr_per_op", "calls/op", "lower", "cpu_us_per_op on local-uniform-r90"},
	{"os.write_bytes_per_user_byte", "B/B", "lower", "disk_write_bytes_per_op on local-uniform-w80"},
	{"os.syscw_per_op", "calls/op", "lower", "cpu_us_per_op on local-uniform-w80"},
	{"os.sys_us_per_op", "us", "lower", "cpu_us_per_op on every workload"},
	{"go.allocs_per_op", "allocs/op", "lower", "cpu_us_per_op and read_p99_us on every workload"},
	{"go.alloc_bytes_per_op", "B/op", "lower", "cpu_us_per_op and read_p99_us on every workload"},
	{"go.gc_cycles_per_kop", "1/kop", "lower", "cpu_us_per_op and read_p99_us on every workload"},
	{"trace.overhead_ratio", "ratio", "lower", "none: traced cost over untraced (ops_s, or read_p50_us on net-zipf-r95)"},
}

// measureFunc returns the workload's measured interval — the closed loop,
// or the open loop at the reference rate — and, for the open loop, its
// generator. The generator state persists across calls, so no interval
// replays another.
func (b *bench) measureFunc() (func(sk *stack, d time.Duration) *window, *netGen) {
	if b.w.network {
		g := newNetGen(b.w, b.seed)
		return func(sk *stack, d time.Duration) *window { return b.refWindow(sk, g, d) }, g
	}
	g := newLocalGen(b.w, b.seed)
	return func(sk *stack, d time.Duration) *window { return closedLoop(sk.target(), b.led, g, d) }, nil
}

// counters is a snapshot of the stack's public counters.
type counters struct {
	ss     palermo.ServiceStats
	tr     palermo.TrafficReport
	fsyncN uint64
	fsyncD time.Duration
	net    palermo.ClientNetStats
}

func snapshot(sk *stack) counters {
	c := counters{ss: sk.st.Stats(), tr: sk.st.Traffic()}
	c.fsyncN, c.fsyncD = sk.st.FsyncLag()
	if sk.cl != nil {
		c.net = sk.cl.NetStats()
	}
	return c
}

// runTraced measures half the window on the plain stack, reading the
// public counters around it, then half on the traced stack, then checks
// the two stacks serve identically.
func (b *bench) runTraced(dir string) error {
	half := b.window / 2
	measure, _ := b.measureFunc()

	sk, err := open(dir, b.w.blocks, b.w.network, nil)
	if err != nil {
		return err
	}
	b.count(measure(sk, warmup))
	c0, p0 := snapshot(sk), sampleProc()
	win := measure(sk, half)
	p1, c1 := sampleProc(), snapshot(sk)
	b.count(win)
	if err := sk.close(); err != nil {
		return err
	}

	// The benchmark runs from the repository root, next to the program.
	if err := checkDefaults("sharded.go"); err != nil {
		b.res.Failed++
		b.wrong = append(b.wrong, err.Error())
	}
	tr := &tracer{}
	tk, err := open(dir, b.w.blocks, b.w.network, tr)
	if err != nil {
		return err
	}
	b.count(measure(tk, warmup))
	*tr = tracer{}
	twin := measure(tk, half)
	b.count(twin)
	v := b.layerValues(win, twin, c0, c1, p0, p1, tr)
	if err := tk.close(); err != nil {
		return err
	}
	if err := b.equivalence(); err != nil {
		return err
	}
	for _, m := range layerMetrics {
		b.set(m.name, v[m.name], m.unit)
		fmt.Printf("moves %-30s -> %s\n", m.name, m.moves)
	}
	return nil
}

// layerValues derives the per-layer metrics: counts from the untraced
// window's counter and process deltas, timings from the traced window's
// wrappers (read before the traced stack closes, so its final
// checkpoints are not counted).
func (b *bench) layerValues(win, twin *window, c0, c1 counters, p0, p1 procSample, tr *tracer) map[string]float64 {
	ops := float64(max(win.ops.Load(), 1))
	tops := float64(max(twin.ops.Load(), 1))
	busy := func(us float64) float64 { return us / (twin.elapsed.Seconds() * 1e6 * 2) }
	per := func(a, b uint64) float64 { return float64(a-b) / ops }
	onlyIf := func(use bool, v float64) float64 {
		if use {
			return v
		}
		return 0
	}
	net := b.w.network
	v := map[string]float64{
		"gen.late_p50_us":      onlyIf(net, win.late.quantileUs(0.5)),
		"gen.late_p99_us":      onlyIf(net, win.late.quantileUs(0.99)),
		"gen.inflight_max":     onlyIf(net, float64(win.inflightMax.Load())),
		"client.call_p50_us":   onlyIf(net, twin.call.quantileUs(0.5)),
		"client.call_p99_us":   onlyIf(net, twin.call.quantileUs(0.99)),
		"client.frames_per_op": ratio(c1.net.FramesSent-c0.net.FramesSent, c1.net.Ops-c0.net.Ops),
		"client.merged_ratio":  ratio(c1.net.MergedOps-c0.net.MergedOps, c1.net.Ops-c0.net.Ops),
		"client.self_us_mean": onlyIf(net, twin.call.meanUs()-
			float64(tr.storeOpNanos.Load())/float64(max(tr.storeOps.Load(), 1))/1e3),
		"netserve.store_call_p50_us": tr.storeCall.quantileUs(0.5),
		"netserve.store_call_p99_us": tr.storeCall.quantileUs(0.99),
		"netserve.ops_per_frame":     ratio(tr.storeOps.Load(), tr.storeCall.count()),
		"serve.call_p50_us":          tr.serveCall.quantileUs(0.5),
		"serve.call_p99_us":          tr.serveCall.quantileUs(0.99),
		"serve.dedup_ratio":          per(c1.ss.DedupHits, c0.ss.DedupHits),
		"serve.queue_wait_mean_us": (c1.ss.QueueLat.MeanUs*float64(c1.ss.QueueLat.N) - c0.ss.QueueLat.MeanUs*float64(c0.ss.QueueLat.N)) /
			float64(max(c1.ss.QueueLat.N-c0.ss.QueueLat.N, 1)),
		"serve.sheds":                  float64(c1.ss.Sheds - c0.ss.Sheds),
		"serve.self_us_mean":           (tr.serveCall.sumUs() - tr.begin.sumUs() - tr.wait.sumUs()) / float64(max(tr.serveCall.count(), 1)),
		"shard.begin_p50_us":           tr.begin.quantileUs(0.5),
		"shard.begin_p99_us":           tr.begin.quantileUs(0.99),
		"shard.wait_p50_us":            tr.wait.quantileUs(0.5),
		"shard.wait_p99_us":            tr.wait.quantileUs(0.99),
		"shard.busy_frac":              busy(tr.begin.sumUs() + tr.wait.sumUs()),
		"oram.lines_per_op":            per(c1.tr.DRAMReads+c1.tr.DRAMWrites, c0.tr.DRAMReads+c0.tr.DRAMWrites),
		"oram.treetop_hit_ratio":       ratio(c1.tr.TreeTopHits-c0.tr.TreeTopHits, c1.tr.TreeTopHits-c0.tr.TreeTopHits+c1.tr.DRAMReads+c1.tr.DRAMWrites-c0.tr.DRAMReads-c0.tr.DRAMWrites),
		"oram.stash_peak":              float64(c1.tr.StashPeak),
		"blockfile.get_calls_per_op":   float64(tr.get.count()) / tops,
		"blockfile.get_lines_per_op":   float64(tr.getLines.Load()) / tops,
		"blockfile.get_p50_us":         tr.get.quantileUs(0.5),
		"blockfile.get_p99_us":         tr.get.quantileUs(0.99),
		"blockfile.put_calls_per_op":   float64(tr.put.count()) / tops,
		"blockfile.put_lines_per_op":   float64(tr.putLines.Load()) / tops,
		"blockfile.put_p99_us":         tr.put.quantileUs(0.99),
		"blockfile.fsyncs_per_op":      per(c1.fsyncN, c0.fsyncN),
		"blockfile.fsync_mean_us":      float64((c1.fsyncD - c0.fsyncD).Microseconds()) / float64(max(c1.fsyncN-c0.fsyncN, 1)),
		"blockfile.checkpoints":        float64(tr.checkpoints.count()),
		"blockfile.checkpoint_max_ms":  tr.checkpoints.maxUs() / 1e3,
		"blockfile.busy_frac":          busy(tr.get.sumUs() + tr.put.sumUs() + tr.checkpoints.sumUs()),
		"os.read_bytes_per_op":         (p1.io["read_bytes"] - p0.io["read_bytes"]) / ops,
		"os.syscr_per_op":              (p1.io["syscr"] - p0.io["syscr"]) / ops,
		"os.write_bytes_per_user_byte": (p1.io["write_bytes"] - p0.io["write_bytes"]) / float64(max(win.write.count(), 1)*blockBytes),
		"os.syscw_per_op":              (p1.io["syscw"] - p0.io["syscw"]) / ops,
		"os.sys_us_per_op":             (p1.sysUs - p0.sysUs) / ops,
		"go.allocs_per_op":             per(p1.mallocs, p0.mallocs),
		"go.alloc_bytes_per_op":        per(p1.allocBytes, p0.allocBytes),
		"go.gc_cycles_per_kop":         float64(p1.numGC-p0.numGC) * 1e3 / ops,
	}
	if net {
		v["trace.overhead_ratio"] = twin.read.quantileUs(0.5) / max(win.read.quantileUs(0.5), 1e-9)
	} else {
		v["trace.overhead_ratio"] = (ops / win.elapsed.Seconds()) / (tops / twin.elapsed.Seconds())
	}
	return v
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// equivalenceOps is how many of the workload's first ops the equivalence
// check replays.
const equivalenceOps = 2000

// equivalence replays the workload's first ops one at a time through a
// plain and a traced stack, each on a fresh directory, and requires
// identical payloads and identical Traffic counters. It catches a traced
// stack with another key, seed, tree-top, cache or prefetch setting; it
// cannot see the pipeline depth or the crypto pool, which change neither
// (checkDefaults covers those).
func (b *bench) equivalence() error {
	type outcome struct {
		reads   [][]byte
		traffic palermo.TrafficReport
	}
	replay := func(tr *tracer, name string) (outcome, error) {
		var out outcome
		dir := filepath.Join(b.root, name)
		defer os.RemoveAll(dir)
		sk, err := open(dir, b.w.blocks, b.w.network, tr)
		if err != nil {
			return out, err
		}
		led := newLedger(b.led.key, b.w.blocks)
		next := b.firstOps()
		for i := 0; i < equivalenceOps; i++ {
			id, read := next(i)
			b.res.Attempted++
			if read {
				data, err := sk.target().Read(id)
				if err == nil && led.ids[id].issued == 0 && !bytes.Equal(data, make([]byte, blockBytes)) {
					err = fmt.Errorf("never-written block %d is not zero", id)
				} else if err == nil && led.ids[id].issued > 0 {
					err = led.check(id, led.ids[id].floor, data)
				}
				if err != nil {
					sk.close()
					return out, fmt.Errorf("equivalence replay (%s): %w", name, err)
				}
				out.reads = append(out.reads, data)
			} else {
				v, data := led.issue(id)
				err := sk.target().Write(id, data)
				led.done(id, v, err == nil)
				if err != nil {
					sk.close()
					return out, fmt.Errorf("equivalence replay (%s): %w", name, err)
				}
			}
		}
		out.traffic = sk.st.Traffic()
		return out, sk.close()
	}
	plain, err := replay(nil, "equiv-plain")
	if err != nil {
		return err
	}
	traced, err := replay(&tracer{}, "equiv-traced")
	if err != nil {
		return err
	}
	same := len(plain.reads) == len(traced.reads) && plain.traffic == traced.traffic
	for i := 0; same && i < len(plain.reads); i++ {
		same = bytes.Equal(plain.reads[i], traced.reads[i])
	}
	fmt.Printf("equivalence ops=%d reads=%d traffic_plain=%+v traffic_traced=%+v identical=%v\n",
		equivalenceOps, len(plain.reads), plain.traffic, traced.traffic, same)
	if !same {
		b.res.Failed++
		b.wrong = append(b.wrong, "traced stack diverges from the plain stack")
	}
	return nil
}

// firstOps returns the workload's op stream from its start, as a fresh
// generator for the same seed draws it: the dispatcher's stream for the
// open loop, the two callers' streams interleaved for the closed loop.
func (b *bench) firstOps() func(i int) (uint64, bool) {
	if b.w.network {
		g := newNetGen(b.w, b.seed)
		return func(int) (uint64, bool) {
			g.gap(b.refRate)
			return g.next()
		}
	}
	g := newLocalGen(b.w, b.seed)
	return func(i int) (uint64, bool) { return g.next(i % callers) }
}
