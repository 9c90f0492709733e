package oram

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"palermo/internal/rng"
)

// The golden-trace oracle pins the engine's observable behaviour across
// representation changes: every access's exposed leaf, returned value,
// traffic, stash occupancy (and, in address mode, every DRAM address) is
// folded into one digest per run. The expected digests were computed on an
// earlier engine whose state lived in Go maps and per-bucket structs; the
// differential suites compare configurations within one build, this test
// compares builds.

// traceHasher folds plans into a running FNV-64a digest.
type traceHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newTraceHasher() *traceHasher { return &traceHasher{h: fnv.New64a()} }

func (t *traceHasher) word(v uint64) {
	binary.LittleEndian.PutUint64(t.buf[:], v)
	t.h.Write(t.buf[:])
}

func (t *traceHasher) plan(p *Plan, addrs bool) {
	t.word(p.ReqID)
	t.word(p.DataLeaf)
	t.word(p.Val)
	t.word(uint64(p.Reads()))
	t.word(uint64(p.Writes()))
	if p.FromStash {
		t.word(1)
	} else {
		t.word(0)
	}
	for _, n := range p.StashAfter {
		t.word(uint64(n))
	}
	if !addrs {
		return
	}
	for _, la := range p.Levels {
		for _, ph := range la.Phases {
			t.word(uint64(ph.Kind))
			for _, a := range ph.Reads {
				t.word(a)
			}
			for _, a := range ph.Writes {
				t.word(a ^ 1<<63)
			}
		}
	}
}

func (t *traceHasher) sum() string { return fmt.Sprintf("%016x", t.h.Sum64()) }

// servingGoldenRun drives the serving configuration — the Palermo variant
// in count-only traffic mode over 2^16 lines, through the staged
// PlanAccess/Apply path the shards use — through a full population pass
// and then ops mixed accesses (10% writes, uniform PAs).
func servingGoldenRun(t testing.TB, ops int) string {
	cfg := PalermoRingConfig()
	cfg.NLines = 1 << 16
	cfg.Seed = 11
	cfg.CountTraffic = true
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newTraceHasher()
	for pa := uint64(0); pa < cfg.NLines; pa++ {
		op := e.PlanAccess(pa, true, pa+1)
		h.plan(op.Apply(), false)
	}
	r := rng.New(12)
	for i := 0; i < ops; i++ {
		pa := r.Uint64n(cfg.NLines)
		write := r.Uint64n(10) == 0
		op := e.PlanAccess(pa, write, r.Uint64())
		h.plan(op.Apply(), false)
	}
	return h.sum()
}

// baselineGoldenRun drives RingORAM Algorithm 1 in address mode with the
// classic (4,5,3) buckets and full recursion: every DRAM address of every
// phase is hashed, and one access in 16 is a dummy.
func baselineGoldenRun(t testing.TB, ops int) string {
	cfg := DefaultRingConfig()
	cfg.NLines = 1 << 14
	cfg.Seed = 21
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := newTraceHasher()
	r := rng.New(22)
	for i := 0; i < ops; i++ {
		if i%16 == 15 {
			h.plan(e.DummyAccess(), true)
			continue
		}
		pa := r.Uint64n(cfg.NLines)
		write := r.Uint64n(3) == 0
		h.plan(e.Access(pa, write, r.Uint64()), true)
	}
	return h.sum()
}

func TestGoldenTraceServing(t *testing.T) {
	const want = "627c79fb3f4ca84d"
	if got := servingGoldenRun(t, 200_000); got != want {
		t.Fatalf("serving-config trace digest = %s, want %s", got, want)
	}
}

func TestGoldenTraceBaselineAddresses(t *testing.T) {
	const want = "3318be07b0bc4c3b"
	if got := baselineGoldenRun(t, 50_000); got != want {
		t.Fatalf("baseline address-mode trace digest = %s, want %s", got, want)
	}
}
