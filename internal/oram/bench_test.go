package oram

import (
	"testing"

	"palermo/internal/rng"
)

// servingRing builds the engine a serving shard runs — the Palermo variant
// in count-only traffic mode — over lines lines, with every line written
// once, so accesses run against a populated tree and a warm stash.
func servingRing(t testing.TB, lines uint64) *Ring {
	cfg := PalermoRingConfig()
	cfg.NLines = lines
	cfg.CountTraffic = true
	e, err := NewRing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pa := uint64(0); pa < lines; pa++ {
		op := e.PlanAccess(pa, true, pa)
		op.Apply()
	}
	return e
}

// servingAccess performs one serving access: a uniform PA, 10% writes,
// through the staged Plan/Apply path the shards drive.
func servingAccess(e *Ring, r *rng.Rand) *Plan {
	pa := r.Uint64n(e.cfg.NLines)
	op := e.PlanAccess(pa, r.Uint64n(10) == 0, pa)
	return op.Apply()
}

// BenchmarkRingServingAccess measures one serving access at 2^16 lines:
// the trusted-controller cost of the serving path's engine stage.
func BenchmarkRingServingAccess(b *testing.B) {
	e := servingRing(b, 1<<16)
	r := rng.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servingAccess(e, r)
	}
}

// TestRingServingAccessAllocs guards the engine's per-access allocations:
// the plan and its per-level arrays are all a serving access may allocate
// (posmap pages, stash slab and buckets settle once the tree is populated).
func TestRingServingAccessAllocs(t *testing.T) {
	const maxAllocs = 8
	e := servingRing(t, 1<<16)
	r := rng.New(3)
	if got := testing.AllocsPerRun(2000, func() { servingAccess(e, r) }); got > maxAllocs {
		t.Fatalf("serving access allocates %.1f times, want at most %d", got, maxAllocs)
	}
}
