// Command servebench is the repository's serving benchmark. It builds the
// full serving stack on the blockfile engine in a directory of the
// checkout — palermo.Client → wire → netserve → ShardedStore → serve →
// shard (ORAM engine, sealing) → blockfile — drives one workload from a
// seeded generator, checks every payload it reads, and prints one metric
// per line followed by a JSON result line.
//
//	bash servebench/run.sh --workload local-uniform-r90 --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from an untraced window (public counters) and a
// traced window (timing wrappers at each layer boundary), and checks that
// the traced stack serves exactly what the plain one does.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"palermo"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		sloUs   = flag.Float64("slo-read-p99-us", 0, "net-zipf-r95 only: read p99 latency limit of the max-rate search (µs)")
		refRate = flag.Float64("ref-rate", 0, "net-zipf-r95 only: open-loop reference rate for the latency metrics (ops/s)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (w.network && (*sloUs <= 0 || *refRate <= 0)) {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: servebench --workload {%s} --seed N --seconds S --trace {0|1} [--slo-read-p99-us U --ref-rate R]\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, slo: time.Duration(*sloUs * 1e3), refRate: *refRate}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, its seed, and what was measured.
type bench struct {
	w       workload
	seed    uint64
	window  time.Duration
	trace   bool
	slo     time.Duration
	refRate float64

	root    string // this run's store directories
	led     *ledger
	res     result
	wrong   []string // correctness failures, reported on stderr
	metrics []string // metric names in print order
	info    []string // ungated wall-clock figures, printed before the metrics
}

// count folds a window's ops into the result.
func (b *bench) count(w *window) {
	b.res.Attempted += w.ops.Load()
	b.res.Failed += w.fails.Load()
	if w.firstErr != nil {
		b.wrong = append(b.wrong, w.firstErr.Error())
	}
}

// note records a wall-clock figure that is printed but not part of the
// result. Throughput and latency are not gated: on a shared 2-vCPU host,
// contention phases lasting minutes spread them over ten runs (IQR/median:
// ops/s 0.11-0.59, read p99 0.22-1.7, even a run's least-disturbed second's
// read p50 up to 0.29) past the largest bound a gated metric may have
// (0.25).
func (b *bench) note(name string, v float64, unit string) {
	b.info = append(b.info, fmt.Sprintf("ungated %-32s %14.4f %s", name, v, unit))
}

func (b *bench) set(name string, v float64, unit string) {
	if _, dup := b.res.Metrics[name]; !dup {
		b.metrics = append(b.metrics, name)
	}
	b.res.Metrics[name] = metric{v, unit}
}

func (b *bench) run() (*result, error) {
	b.res.Metrics = map[string]metric{}
	b.root = filepath.Join(".bench_build", "servebench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.root, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(b.root)
		// Commit the deletions (and the discards they issue) now rather
		// than in the next run's set-up.
		syscall.Sync()
	}()
	h, err := probeHost(b.root)
	if err != nil {
		return nil, fmt.Errorf("host check: %w", err)
	}
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	if err := selfTest(); err != nil {
		return nil, err
	}

	b.led = newLedger(mix(b.seed, 0x5eed), b.w.blocks)
	reps := 3
	if b.trace {
		reps = 1
	}
	dir, setup, err := b.setup(reps)
	if err != nil {
		return nil, err
	}
	if b.trace {
		err = b.runTraced(dir)
	} else {
		b.set("setup_s", setup, "s")
		err = b.runPlain(dir)
	}
	if err != nil {
		return nil, err
	}
	if err := b.readBack(dir); err != nil {
		return nil, err
	}
	if !b.trace {
		b.set("ok_ratio", 1-float64(b.res.Failed)/float64(max(b.res.Attempted, 1)), "ratio")
	}
	for _, line := range b.info {
		fmt.Println(line)
	}
	for _, n := range b.metrics {
		m := b.res.Metrics[n]
		fmt.Printf("metric %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, msg := range b.wrong {
		fmt.Fprintln(os.Stderr, "servebench: wrong:", msg)
	}
	b.res.Correct = b.res.Failed == 0 && len(b.wrong) == 0
	return &b.res, nil
}

// setup builds the workload's store reps times — create, write every
// block, Close, reopen — and returns the last directory and the median
// process CPU time (user + system) a build took. CPU time rather than wall
// time because it leaves out the time spent waiting while other tenants of
// a shared host hold the CPU or the disk: over two sets of ten runs its
// spread (IQR/median) was 0.10-0.28 against 0.13-0.35 for wall time, which
// is printed, ungated. Blocks are written in 256-op
// batches, version 0 each. The earlier copies stay until the run ends:
// deleting them now would make the filesystem discard their blocks during
// the measured window.
func (b *bench) setup(reps int) (string, float64, error) {
	var times, walls []float64
	var dir string
	blk := make([][]byte, 256)
	ids := make([]uint64, 256)
	for r := 0; r < reps; r++ {
		dir = filepath.Join(b.root, fmt.Sprintf("store-%d", r))
		p0 := sampleProc()
		st, err := palermo.NewShardedStore(storeConfig(dir, b.w.blocks))
		if err != nil {
			return "", 0, fmt.Errorf("setup: %w", err)
		}
		for base := uint64(0); base < b.w.blocks; base += uint64(len(ids)) {
			for i := range ids {
				ids[i] = base + uint64(i)
				blk[i] = payload(b.led.key, ids[i], 0)
			}
			if err := st.WriteBatch(ids, blk); err != nil {
				st.Close()
				return "", 0, fmt.Errorf("setup: %w", err)
			}
		}
		if err := st.Close(); err != nil {
			return "", 0, fmt.Errorf("setup: %w", err)
		}
		if st, err = palermo.NewShardedStore(storeConfig(dir, b.w.blocks)); err != nil {
			return "", 0, fmt.Errorf("setup: reopen: %w", err)
		}
		p1 := sampleProc()
		times = append(times, (p1.userUs+p1.sysUs-p0.userUs-p0.sysUs)/1e6)
		walls = append(walls, p1.at.Sub(p0.at).Seconds())
		if err := st.Close(); err != nil {
			return "", 0, fmt.Errorf("setup: %w", err)
		}
	}
	fmt.Printf("setup cpu_s %v wall_s %v\n", times, walls)
	b.note("setup_wall_s", median(walls), "s")
	// Flush what set-up left dirty, so its writeback does not land in the
	// measured window.
	syscall.Sync()
	return dir, median(times), nil
}

// readBack reopens the store after the run and reads every block the run
// wrote: each must hold a version no older than the last one acknowledged
// alone — the durability check.
func (b *bench) readBack(dir string) error {
	st, err := palermo.NewShardedStore(storeConfig(dir, b.w.blocks))
	if err != nil {
		return fmt.Errorf("read-back: reopen: %w", err)
	}
	var ids []uint64
	for id := range b.led.ids {
		if b.led.ids[id].issued > 0 {
			ids = append(ids, uint64(id))
		}
	}
	bad, checked := 0, len(ids)
	for len(ids) > 0 {
		chunk := ids[:min(len(ids), 1024)]
		ids = ids[len(chunk):]
		got, err := st.ReadBatch(chunk)
		b.res.Attempted += uint64(len(chunk))
		for i, id := range chunk {
			if err == nil {
				err = b.led.check(id, b.led.ids[id].floor, got[i])
			}
			if err != nil {
				bad++
				if bad == 1 {
					b.wrong = append(b.wrong, "read-back: "+err.Error())
				}
				err = nil
			}
		}
	}
	b.res.Failed += uint64(bad)
	fmt.Printf("read-back blocks_checked %d wrong %d\n", checked, bad)
	return st.Close()
}

// warmup is run before every measured window and not reported.
const warmup = time.Second

// refShare is the open loop's share, in tenths, of the measured time spent
// at the reference rate; the max-rate search gets the rest.
const refShare = 6

// runPlain measures the end-to-end metrics on the untraced stack.
func (b *bench) runPlain(dir string) error {
	sk, err := open(dir, b.w.blocks, b.w.network, nil)
	if err != nil {
		return err
	}
	measure, g := b.measureFunc()
	b.count(measure(sk, warmup))
	d := b.window
	if g != nil {
		d = b.window * refShare / 10
	}
	p0 := sampleProc()
	win := measure(sk, d)
	p1 := sampleProc()
	// Read before the max-rate search, whose overload steps are not the
	// workload's own load.
	rss, err := peakRSSMiB()
	if err != nil {
		sk.close()
		return err
	}
	b.count(win)
	b.note("ops_s", win.subOpsPerSec(), "1/s")
	b.note("host_steal_frac", (p1.stealS-p0.stealS)/(p1.at.Sub(p0.at).Seconds()*float64(runtime.NumCPU())), "ratio")
	if g != nil {
		lo := 0.0
		if b.meets(win, b.refRate) {
			lo = b.refRate
		}
		b.note("max_rate_ops_s", b.search(sk, g, lo, b.window-d), "1/s")
	}
	b.latency("read", win, 0, &win.read)
	b.latency("write", win, 1, &win.write)
	ops := float64(max(win.ops.Load(), 1))
	b.set("cpu_us_per_op", (p1.userUs+p1.sysUs-p0.userUs-p0.sysUs)/ops, "us")
	b.set("disk_read_bytes_per_op", (p1.io["read_bytes"]-p0.io["read_bytes"])/ops, "B/op")
	b.set("disk_write_bytes_per_op", (p1.io["write_bytes"]-p0.io["write_bytes"])/ops, "B/op")
	b.set("peak_rss_mib", rss, "MiB")
	disk, err := dirBytes(dir)
	if err != nil {
		sk.close()
		return err
	}
	b.set("disk_bytes_per_user_byte", float64(disk)/float64(b.w.blocks*blockBytes), "B/B")
	return sk.close()
}

// latency notes one op class's p50, p95 and p99, each the median over the
// window's one-second sub-windows, and records the pooled sample count,
// p50, p99, the highest percentile with ten samples beyond it, and the
// maximum.
func (b *bench) latency(name string, w *window, class int, h *hist) {
	for _, q := range []float64{50, 95, 99} {
		b.note(fmt.Sprintf("%s_p%g_us", name, q), w.subQuantileUs(class, q/100), "us")
	}
	p := h.tailPercentile()
	fmt.Printf("latency %s n=%d pooled_p50_us=%.1f pooled_p99_us=%.1f p%g_us=%.1f max_us=%.1f\n",
		name, h.count(), h.quantileUs(0.5), h.quantileUs(0.99), p, h.quantileUs(p/100), h.maxUs())
}

// refWindow runs an open-loop interval at the reference rate. It never
// stops dispatch early (its cap only bounds memory): what it measures is
// the latency users see at that rate, however bad.
func (b *bench) refWindow(sk *stack, g *netGen, d time.Duration) *window {
	return openLoop(sk.target(), b.led, g, b.refRate, d, int64(b.refRate))
}

// openWindow runs one open-loop interval, with the dispatch cap at four
// times the backlog the latency limit allows at this rate.
func (b *bench) openWindow(sk *stack, g *netGen, rate float64, d time.Duration) *window {
	return openLoop(sk.target(), b.led, g, rate, d, b.backlogCap(rate)*4)
}

// backlogCap is the in-flight count above which ops must, by Little's
// law, average more than the latency limit at rate.
func (b *bench) backlogCap(rate float64) int64 {
	return max(16, int64(rate*b.slo.Seconds()))
}

// searchStep is the max-rate search's fixed resolution; searchTop is the
// highest rate it tries.
const (
	searchStep = 500.0
	searchTop  = 32000.0
)

// meets reports whether an open-loop interval at rate met the limit: read
// p99 from due time within it, no failed op, and no growing backlog —
// dispatch never hit its cap and the ops in flight when the schedule
// ended were within the limit's Little's-law bound.
func (b *bench) meets(w *window, rate float64) bool {
	return !w.aborted && w.fails.Load() == 0 &&
		w.read.quantileUs(0.99) <= float64(b.slo.Microseconds()) && w.inflightEnd <= b.backlogCap(rate)
}

// search bisects the offered rate on a fixed 500 ops/s grid above lo, a
// rate known to meet the limit, up to searchTop, and returns the highest
// rate whose step met it. The budget is split evenly across the steps.
func (b *bench) search(sk *stack, g *netGen, lo float64, budget time.Duration) float64 {
	hi := searchTop + searchStep
	steps := 0
	for n := (hi - lo) / searchStep; n > 1; n /= 2 {
		steps++
	}
	per := budget / time.Duration(max(steps, 1))
	for hi-lo > searchStep {
		mid := lo + searchStep*float64(int((hi-lo)/searchStep/2))
		w := b.openWindow(sk, g, mid, per)
		b.count(w)
		ok := b.meets(w, mid)
		fmt.Printf("step rate=%.0f read_p99_us=%.1f late_p50_us=%.1f late_p99_us=%.1f inflight_end=%d inflight_max=%d aborted=%v fails=%d meets_limit=%v\n",
			mid, w.read.quantileUs(0.99), w.late.quantileUs(0.5), w.late.quantileUs(0.99), w.inflightEnd, w.inflightMax.Load(), w.aborted, w.fails.Load(), ok)
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

var errSelfTest = errors.New("histogram self-test failed")

// selfTest checks the latency histogram is not clamped: one 50 ms sample
// among twenty 100 µs ones must report p99 >= 50 ms.
func selfTest() error {
	var h hist
	for i := 0; i < 20; i++ {
		h.add(100 * time.Microsecond)
	}
	h.add(50 * time.Millisecond)
	if h.quantileUs(0.99) < 50e3 {
		return errSelfTest
	}
	return nil
}
