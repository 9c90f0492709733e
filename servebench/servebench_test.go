package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestHistogramNotClamped(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	for v := uint64(1); v < 1<<62; v = v*3 + 1 {
		i := histIndex(v)
		up := histUpper(i)
		if up < v || (i > 0 && histUpper(i-1) >= v) {
			t.Fatalf("value %d in bucket %d with upper edge %d", v, i, up)
		}
		if float64(up-v) > 0.01*float64(v) {
			t.Fatalf("value %d reported as %d: more than 1%% over", v, up)
		}
	}
	if histIndex(math.MaxUint64) != histBuckets-1 {
		t.Fatalf("largest value lands in bucket %d of %d", histIndex(math.MaxUint64), histBuckets)
	}
}

func TestQuantile(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		got := h.quantileUs(c.q)
		if got < c.want || got > c.want*1.01 {
			t.Errorf("q%.2f = %.1f µs, want %.0f (+1%%)", c.q, got, c.want)
		}
	}
	if p := h.tailPercentile(); p != 99 {
		t.Errorf("tail percentile of 1000 samples = %g, want 99", p)
	}
}

func TestPayload(t *testing.T) {
	b := payload(7, 42, 3)
	if id, ver, ok := parsePayload(7, b); !ok || id != 42 || ver != 3 {
		t.Fatalf("parse = (%d, %d, %v)", id, ver, ok)
	}
	b[20] ^= 1
	if _, _, ok := parsePayload(7, b); ok {
		t.Fatal("corrupted payload accepted")
	}
	if _, _, ok := parsePayload(8, payload(7, 42, 3)); ok {
		t.Fatal("payload accepted under another key")
	}
}

func TestLedger(t *testing.T) {
	l := newLedger(1, 4)
	v1, d1 := l.issue(2)
	v2, d2 := l.issue(2) // overlaps v1: neither may raise the floor
	l.done(2, v2, true)
	l.done(2, v1, true)
	if f := l.floorOf(2); f != 0 {
		t.Fatalf("overlapping writes raised floor to %d", f)
	}
	if l.check(2, 0, d1) != nil || l.check(2, 0, d2) != nil {
		t.Fatal("either overlapping version must be accepted")
	}
	v3, d3 := l.issue(2)
	l.done(2, v3, true)
	if f := l.floorOf(2); f != v3 {
		t.Fatalf("solitary write left floor at %d, want %d", f, v3)
	}
	if l.check(2, v3, d2) == nil {
		t.Fatal("read older than an acknowledged solitary write accepted")
	}
	if l.check(2, v3, d3) != nil || l.check(1, 0, d3) == nil {
		t.Fatal("check mismatched the block id")
	}
}

func TestLocalCallersOwnDisjointIDs(t *testing.T) {
	w := workload{blocks: 1 << 10, readFrac: 0.5}
	g := newLocalGen(w, 1)
	owner := map[uint64]int{}
	shards := [callers]map[uint64]bool{{}, {}}
	for i := 0; i < 20000; i++ {
		c := i % callers
		id, _ := g.next(c)
		if o, seen := owner[id]; seen && o != c {
			t.Fatalf("id %d drawn by callers %d and %d", id, o, c)
		}
		owner[id] = c
		shards[c][id%2] = true
	}
	for c := range shards {
		if len(shards[c]) != 2 {
			t.Errorf("caller %d reaches only shards %v", c, shards[c])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's per-layer list in step with the
// metrics a --trace 1 run prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if p := b.PerLayer[i]; p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, p, m)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
}

func TestDefaultsMatchProgram(t *testing.T) {
	if err := checkDefaults("../sharded.go"); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../sharded.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ from, to string }{
		{"c.PipelineDepth = 2", "c.PipelineDepth = 1"},
		{"c.Seed = 1", "c.Seed = 1\n\t\tc.CryptoWorkers = 2"},
		{"c.Seed = 1", "_ = 1"},
	} {
		if !strings.Contains(string(src), c.from) {
			t.Fatalf("sharded.go has no %q", c.from)
		}
		p := filepath.Join(t.TempDir(), "sharded.go")
		if err := os.WriteFile(p, []byte(strings.Replace(string(src), c.from, c.to, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		if checkDefaults(p) == nil {
			t.Errorf("defaults check passes with %q changed to %q", c.from, c.to)
		}
	}
}
