package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"palermo/internal/rng"
)

// workload is one traffic mix the benchmark runs against the stack.
type workload struct {
	blocks   uint64
	network  bool    // open loop of Zipf(0.99) ids through Client and Server; else closed loop of uniform ids in-process
	readFrac float64 // share of ops that are reads
}

var workloads = map[string]workload{
	"net-zipf-r95":      {blocks: 1 << 16, network: true, readFrac: 0.95},
	"local-uniform-r90": {blocks: 1 << 17, readFrac: 0.90},
	"local-uniform-w80": {blocks: 1 << 16, readFrac: 0.20},
}

// callers is the closed loop's caller goroutine count.
const callers = 2

// ledger is the benchmark's record of what every block must hold. issued
// is the highest version handed out for an id; floor is the highest
// version acknowledged by a write that overlapped no other write to the
// id, so every read issued after that acknowledgement must see at least
// floor. Under the closed loop each id has one writer, so floor == issued
// between calls and every read is checked exactly.
type ledger struct {
	key uint64
	mu  [64]sync.Mutex // striped by id
	ids []idState
}

type idState struct {
	issued, floor uint64
	solo          uint64 // the version in flight alone, else 0
	pending       int    // writes in flight
}

func newLedger(key, blocks uint64) *ledger {
	return &ledger{key: key, ids: make([]idState, blocks)}
}

func (l *ledger) lock(id uint64) func() {
	m := &l.mu[id%uint64(len(l.mu))]
	m.Lock()
	return m.Unlock
}

// issue allocates id's next version for a write about to be sent.
func (l *ledger) issue(id uint64) (uint64, []byte) {
	defer l.lock(id)()
	s := &l.ids[id]
	s.issued++
	s.solo = 0
	if s.pending == 0 {
		s.solo = s.issued
	}
	s.pending++
	return s.issued, payload(l.key, id, s.issued)
}

// done records the outcome of the write of version v of id. Only a write
// that overlapped no other write raises floor: every later write is sent
// after its acknowledgement, so is applied after it.
func (l *ledger) done(id, v uint64, acked bool) {
	defer l.lock(id)()
	s := &l.ids[id]
	if acked && s.solo == v {
		s.floor = v
	}
	s.pending--
}

// floorOf is the oldest version a read of id issued now may return.
func (l *ledger) floorOf(id uint64) uint64 {
	defer l.lock(id)()
	return l.ids[id].floor
}

// check verifies that a read of id issued when floor was atLeast returned
// a block this run wrote for id, no older than atLeast.
func (l *ledger) check(id, atLeast uint64, data []byte) error {
	gotID, ver, ok := parsePayload(l.key, data)
	unlock := l.lock(id)
	issued := l.ids[id].issued
	unlock()
	switch {
	case !ok:
		return fmt.Errorf("block %d: payload is not one the benchmark wrote", id)
	case gotID != id:
		return fmt.Errorf("block %d: holds block %d's payload", id, gotID)
	case ver < atLeast || ver > issued:
		return fmt.Errorf("block %d: version %d outside [%d, %d]", id, ver, atLeast, issued)
	}
	return nil
}

// window collects one measured interval's outcomes.
type window struct {
	read, write hist      // per op: per call (closed loop) or from due time (open loop)
	sub         [2][]hist // reads, writes by the one-second sub-window they started in
	call        hist      // per op from the moment it was sent (the client call)
	late        hist      // open loop: send time minus due time
	ops, fails  atomic.Uint64
	inflightMax atomic.Int64
	inflightEnd int64 // open loop: ops still in flight when the schedule ended
	aborted     bool  // open loop: dispatch stopped because the backlog passed its cap
	start       time.Time
	elapsed     time.Duration

	errMu    sync.Mutex
	firstErr error
}

func newWindow(d time.Duration) *window {
	n := (d + time.Second - 1) / time.Second
	return &window{start: time.Now(), sub: [2][]hist{make([]hist, n), make([]hist, n)}}
}

// add records the latency of an op of class (0 reads, 1 writes) that
// started at start, pooled and in its one-second sub-window.
func (w *window) add(class int, start time.Time) {
	lat := time.Since(start)
	[2]*hist{&w.read, &w.write}[class].add(lat)
	if i := int(start.Sub(w.start) / time.Second); i < len(w.sub[class]) {
		w.sub[class][i].add(lat)
	}
}

// subQuantileUs is the median, over the one-second sub-windows, of each
// sub-window's q-quantile of the op class (0 reads, 1 writes), in
// microseconds: a stall confined to one second moves it by one rank.
func (w *window) subQuantileUs(class int, q float64) float64 {
	var v []float64
	for i := range w.sub[class] {
		if w.sub[class][i].count() > 0 {
			v = append(v, w.sub[class][i].quantileUs(q))
		}
	}
	return median(v)
}

// subOpsPerSec is the median, over the one-second sub-windows, of the ops
// started in each.
func (w *window) subOpsPerSec() float64 {
	var v []float64
	for i := range w.sub[0] {
		v = append(v, float64(w.sub[0][i].count()+w.sub[1][i].count()))
	}
	return median(v)
}

func (w *window) fail(err error) {
	w.fails.Add(1)
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errMu.Unlock()
}

// do runs one op against t, timing it from start, and checks its outcome.
func (w *window) do(t target, l *ledger, id uint64, read bool, start time.Time) {
	sent := time.Now()
	var err error
	if read {
		atLeast := l.floorOf(id)
		var data []byte
		if data, err = t.Read(id); err == nil {
			err = l.check(id, atLeast, data)
		}
		w.add(0, start)
	} else {
		v, data := l.issue(id)
		err = t.Write(id, data)
		l.done(id, v, err == nil)
		w.add(1, start)
	}
	w.call.add(time.Since(sent))
	w.ops.Add(1)
	if err != nil {
		w.fail(err)
	}
}

// localGen is the closed loop's op source: one stream per caller, over
// the ids that caller owns, persisting across windows.
type localGen struct {
	w    workload
	rngs [callers]*rng.Rand
}

func newLocalGen(w workload, seed uint64) *localGen {
	g := &localGen{w: w}
	for c := range g.rngs {
		g.rngs[c] = rng.New(mix(seed, uint64(c)+1))
	}
	return g
}

// next draws caller c's next op. Caller c owns the ids whose bit 1 is c,
// so ids of both parities, and hence both shards, belong to every caller.
func (g *localGen) next(c int) (id uint64, read bool) {
	r := g.rngs[c]
	j := r.Uint64n(g.w.blocks / callers)
	return (j>>1)<<2 | uint64(c)<<1 | j&1, r.Float64() < g.w.readFrac
}

// closedLoop runs the callers against t for d.
func closedLoop(t target, l *ledger, g *localGen, d time.Duration) *window {
	w := newWindow(d)
	start := w.start
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				id, read := g.next(c)
				w.do(t, l, id, read, t0)
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// netGen is the open loop's op source: one stream for the dispatcher.
type netGen struct {
	w workload
	r *rng.Rand
	z *rng.Zipf
}

func newNetGen(w workload, seed uint64) *netGen {
	r := rng.New(mix(seed, 0xa11))
	return &netGen{w: w, r: r, z: rng.NewZipf(r, w.blocks, 0.99)}
}

func (g *netGen) next() (id uint64, read bool) {
	return scatter(g.z.Next(), g.w.blocks), g.r.Float64() < g.w.readFrac
}

// gap draws a Poisson inter-arrival time at rate ops/s.
func (g *netGen) gap(rate float64) time.Duration {
	return time.Duration(-math.Log(1-g.r.Float64()) / rate * 1e9)
}

// openLoop offers ops to t at rate for d on a Poisson schedule. The
// dispatcher never waits for an op: each runs on its own goroutine and is
// timed from its due time, so a stall charges every op it delays. Dispatch
// stops early once more than maxInflight ops are outstanding.
func openLoop(t target, l *ledger, g *netGen, rate float64, d time.Duration, maxInflight int64) *window {
	w := newWindow(d)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := w.start
	due := start
	for {
		due = due.Add(g.gap(rate))
		if due.Sub(start) >= d {
			break
		}
		if inflight.Load() >= maxInflight {
			w.aborted = true
			break
		}
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		w.late.add(now.Sub(due))
		id, read := g.next()
		n := inflight.Add(1)
		if n > w.inflightMax.Load() {
			w.inflightMax.Store(n)
		}
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			w.do(t, l, id, read, due)
			inflight.Add(-1)
		}(due)
	}
	w.inflightEnd = inflight.Load()
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}
