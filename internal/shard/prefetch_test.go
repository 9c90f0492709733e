package shard

import (
	"bytes"
	"reflect"
	"testing"

	"palermo/internal/rng"
)

func pfShard(t *testing.T, window int) *Shard {
	t.Helper()
	s, err := New(0, 1, 1<<10, []byte("palermo-demo-key"), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableTrace()
	s.EnablePipeline(4)
	if window > 0 {
		s.EnablePrefetch(window)
	}
	return s
}

// TestPrefetchEquivalence announces every read to the planner on one shard
// and none on its twin: payloads, leaf traces, and protocol counters must
// be bit-identical — a prefetch moves backend I/O earlier, nothing else.
func TestPrefetchEquivalence(t *testing.T) {
	plain, pf := pfShard(t, 0), pfShard(t, 8)
	r := rng.New(3)
	data := make([]byte, BlockBytes)
	for i := 0; i < 600; i++ {
		id := r.Uint64n(1 << 8)
		if r.Float64() < 0.4 {
			for j := range data {
				data[j] = byte(i + j)
			}
			if err := plain.Write(id, data); err != nil {
				t.Fatal(err)
			}
			if err := pf.Write(id, data); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got1, err := plain.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		pf.PrefetchRead(id)
		got2, err := pf.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got1, got2) {
			t.Fatalf("op %d: payload diverged with prefetch on", i)
		}
	}
	if !reflect.DeepEqual(plain.Trace(), pf.Trace()) {
		t.Fatal("leaf trace diverged with prefetch on")
	}
	c1, c2 := plain.Snapshot(), pf.Snapshot()
	c2.PrefetchIssued, c2.PrefetchUsed, c2.PrefetchStale = 0, 0, 0
	if c1 != c2 {
		t.Fatalf("protocol counters diverged: %+v vs %+v", c1, c2)
	}
	used := pf.Snapshot().PrefetchUsed
	if used == 0 {
		t.Fatal("no prefetches were consumed")
	}
	if pf.Snapshot().PrefetchStale != 0 {
		t.Fatal("pure-read announcements produced stale prefetches")
	}
}

// TestPrefetchStaleOnWrite: a write landing between a prefetch's issue and
// its consuming read supersedes the fetched payload; the read must discard
// the stale copy and return the new value.
func TestPrefetchStaleOnWrite(t *testing.T) {
	s := pfShard(t, 4)
	old := bytes.Repeat([]byte{1}, BlockBytes)
	fresh := bytes.Repeat([]byte{2}, BlockBytes)
	if err := s.Write(5, old); err != nil {
		t.Fatal(err)
	}
	if !s.PrefetchRead(5) {
		t.Fatal("prefetch declined with empty window")
	}
	if err := s.Write(5, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read returned the superseded payload")
	}
	c := s.Snapshot()
	if c.PrefetchStale != 1 || c.PrefetchUsed != 0 {
		t.Fatalf("stale accounting wrong: %+v", c)
	}
}

// TestPrefetchOutOfOrderConsumption: reads may consume prefetches in a
// different order than they were issued (the planner announces a batch up
// front; dedup and op order decide consumption).
func TestPrefetchOutOfOrderConsumption(t *testing.T) {
	s := pfShard(t, 4)
	a := bytes.Repeat([]byte{7}, BlockBytes)
	b := bytes.Repeat([]byte{9}, BlockBytes)
	if err := s.Write(10, a); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(20, b); err != nil {
		t.Fatal(err)
	}
	s.PrefetchRead(10)
	s.PrefetchRead(20)
	got, err := s.Read(20) // consumes out of issue order: 10's result parks
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("out-of-order consumption returned wrong payload")
	}
	got, err = s.Read(10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("parked prefetch returned wrong payload")
	}
	if c := s.Snapshot(); c.PrefetchUsed != 2 || c.PrefetchStale != 0 {
		t.Fatalf("prefetch accounting wrong: %+v", c)
	}
}

// TestPrefetchWindowBound: the planner declines past the outstanding
// window instead of blocking, and frees slots as reads consume.
func TestPrefetchWindowBound(t *testing.T) {
	s := pfShard(t, 2)
	if !s.PrefetchRead(1) || !s.PrefetchRead(2) {
		t.Fatal("window should admit two prefetches")
	}
	if s.PrefetchRead(3) {
		t.Fatal("window overcommitted")
	}
	if _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
	if !s.PrefetchRead(3) {
		t.Fatal("consumed slot was not freed")
	}
	if _, err := s.Read(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(3); err != nil {
		t.Fatal(err)
	}
	if c := s.Snapshot(); c.PrefetchIssued != 3 || c.PrefetchUsed != 3 {
		t.Fatalf("prefetch accounting wrong: %+v", c)
	}
}

// TestPrefetchRequiresPipeline: the planner is inert without the staged
// executor — announcements are declined, reads behave normally.
func TestPrefetchRequiresPipeline(t *testing.T) {
	s, err := New(0, 1, 1<<8, []byte("palermo-demo-key"), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.EnablePrefetch(4) // no pipeline: must be ignored
	if s.PrefetchRead(1) {
		t.Fatal("prefetch accepted without a pipeline")
	}
	if _, err := s.Read(1); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchSetEquivalence is TestPrefetchEquivalence for the vectored
// announce: every read's fetch set — the line itself plus the other lines
// of its aligned 16-line run — goes through one PrefetchSet call, and
// payloads, leaf traces, and protocol counters must still match the plain
// twin bit for bit. Sibling announces that no read consumes are released
// with DropPrefetch, exactly as the deep planner does at batch end.
func TestPrefetchSetEquivalence(t *testing.T) {
	plain, pf := pfShard(t, 0), pfShard(t, 64)
	r := rng.New(3)
	data := make([]byte, BlockBytes)
	var group []uint64
	for i := 0; i < 600; i++ {
		id := r.Uint64n(1 << 8)
		if r.Float64() < 0.4 {
			for j := range data {
				data[j] = byte(i + j)
			}
			if err := plain.Write(id, data); err != nil {
				t.Fatal(err)
			}
			if err := pf.Write(id, data); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got1, err := plain.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		group = append(group[:0], id)
		for l := id &^ 15; l < id&^15+16; l++ {
			if l != id {
				group = append(group, l)
			}
		}
		n := pf.PrefetchSet(group)
		got2, err := pf.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got1, got2) {
			t.Fatalf("op %d: payload diverged with set prefetch on", i)
		}
		// Release every issued sibling the read did not consume.
		for _, l := range group[:n] {
			if l != id {
				pf.DropPrefetch(l)
			}
		}
	}
	if !reflect.DeepEqual(plain.Trace(), pf.Trace()) {
		t.Fatal("leaf trace diverged with set prefetch on")
	}
	c1, c2 := plain.Snapshot(), pf.Snapshot()
	c2.PrefetchIssued, c2.PrefetchUsed, c2.PrefetchStale = 0, 0, 0
	if c1 != c2 {
		t.Fatalf("protocol counters diverged: %+v vs %+v", c1, c2)
	}
	if pf.Snapshot().PrefetchUsed == 0 {
		t.Fatal("no prefetches were consumed")
	}
}

// TestPrefetchSetWindowEdge: a set larger than the remaining window is
// admitted as a prefix — the return value names exactly which lines were
// issued, and every issued line is claimable while the declined suffix is
// not outstanding.
func TestPrefetchSetWindowEdge(t *testing.T) {
	s := pfShard(t, 3)
	n := s.PrefetchSet([]uint64{1, 2, 3, 4, 5})
	if n != 3 {
		t.Fatalf("window 3 admitted %d of 5 lines", n)
	}
	if s.PrefetchRead(6) {
		t.Fatal("window overcommitted after a partial set")
	}
	if s.DropPrefetch(4) {
		t.Fatal("declined line was claimable")
	}
	for _, id := range []uint64{1, 2, 3} {
		if _, err := s.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Snapshot(); c.PrefetchIssued != 3 || c.PrefetchUsed != 3 || c.PrefetchStale != 0 {
		t.Fatalf("prefetch accounting wrong: %+v", c)
	}
	// Slots freed: a fresh full-window set is admitted whole.
	if n := s.PrefetchSet([]uint64{7, 8, 9}); n != 3 {
		t.Fatalf("freed window admitted %d of 3 lines", n)
	}
	for _, id := range []uint64{7, 8, 9} {
		if !s.DropPrefetch(id) {
			t.Fatalf("issued line %d was not claimable", id)
		}
	}
}

// TestDropPrefetch: dropping an announce whose read never materialized
// frees its window slot and counts the fetch as stale — including a drop
// issued immediately after the announce, before the I/O goroutine has
// delivered the result (the claim drains the queue and parks nothing).
func TestDropPrefetch(t *testing.T) {
	s := pfShard(t, 2)
	if !s.PrefetchRead(1) {
		t.Fatal("prefetch declined with empty window")
	}
	if !s.DropPrefetch(1) { // result may still be in flight: claim must wait, not wedge
		t.Fatal("outstanding prefetch not droppable")
	}
	if s.DropPrefetch(1) {
		t.Fatal("double drop claimed a phantom prefetch")
	}
	c := s.Snapshot()
	if c.PrefetchIssued != 1 || c.PrefetchStale != 1 || c.PrefetchUsed != 0 {
		t.Fatalf("drop accounting wrong: %+v", c)
	}
	// Both slots free again: the window admits a full set.
	if n := s.PrefetchSet([]uint64{4, 5}); n != 2 {
		t.Fatalf("window after drop admitted %d of 2", n)
	}
	// A demand read still claims a set-issued line (drop is optional).
	if _, err := s.Read(4); err != nil {
		t.Fatal(err)
	}
	if !s.DropPrefetch(5) {
		t.Fatal("sibling line not droppable")
	}
	c = s.Snapshot()
	if c.PrefetchIssued != 3 || c.PrefetchUsed != 1 || c.PrefetchStale != 2 {
		t.Fatalf("final accounting wrong: %+v", c)
	}
}
