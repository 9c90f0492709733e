package shard

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"palermo/internal/backend"
	"palermo/internal/backend/memory"
	"palermo/internal/crypt"
	"palermo/internal/rng"
)

// driveShard populates every block of sh once, then serves ops mixed
// operations (10% writes, uniform ids) from a seeded stream.
func driveShard(t *testing.T, sh *Shard, ops int) {
	t.Helper()
	data := make([]byte, BlockBytes)
	for id := uint64(0); id < sh.Blocks(); id++ {
		data[0] = byte(id)
		if err := sh.Write(id, data); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(4)
	for i := 0; i < ops; i++ {
		id := r.Uint64n(sh.Blocks())
		if r.Uint64n(10) == 0 {
			if err := sh.Write(id, data); err != nil {
				t.Fatal(err)
			}
		} else if _, err := sh.Read(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointBlobDeterministic: the checkpoint blob is a function of
// the shard's state. Two identically driven shards seal byte-identical
// blobs (a map-holding encoding would write its entries in Go's random
// iteration order).
func TestCheckpointBlobDeterministic(t *testing.T) {
	blob := func() []byte {
		sh, err := New(1, 2, 1<<12, testKey, 9, nil)
		if err != nil {
			t.Fatal(err)
		}
		driveShard(t, sh, 4000)
		b, _, err := sh.ExportMeta()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := blob(), blob()
	if !bytes.Equal(a, b) {
		t.Fatalf("identically driven shards sealed different checkpoint blobs (%d and %d bytes)", len(a), len(b))
	}
}

// TestCheckpointBlobSize bounds the flat layout's blob at 2^16 blocks. The
// earlier layout (Go maps and one struct per bucket) sealed 1,164,668
// bytes for this exact drive; the flat layout must stay within 0.65 of it.
func TestCheckpointBlobSize(t *testing.T) {
	const mapLayoutBytes = 1164668
	sh, err := New(0, 1, 1<<16, testKey, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	driveShard(t, sh, 20000)
	blob, _, err := sh.ExportMeta()
	if err != nil {
		t.Fatal(err)
	}
	if limit := mapLayoutBytes * 65 / 100; len(blob) > limit {
		t.Fatalf("checkpoint blob is %d bytes, want at most %d (0.65 of the map layout's %d)", len(blob), limit, mapLayoutBytes)
	}
	t.Logf("checkpoint blob %d bytes, %.3f of the map layout", len(blob), float64(len(blob))/mapLayoutBytes)
}

// The checkpoint layout before the flat engine state: position maps as Go
// maps and one struct per bucket and stash entry, with no layout field.
type (
	mapLayoutShard struct {
		Index, Stride int
		Blocks        uint64
		SealEpoch     uint64
		Reads, Writes uint64
		TrafficR      uint64
		TrafficW      uint64
		TopHits       uint64
		Engine        *mapLayoutRing
	}
	mapLayoutRing struct {
		ReqID        uint64
		LastDataLeaf uint64
		RNG          [4]uint64
		Posmap       []map[uint64]uint32
		Spaces       []mapLayoutSpace
	}
	mapLayoutSpace struct {
		Accesses uint64
		Evictor  uint64
		Stash    struct {
			Entries  []struct{ ID, Leaf, Val uint64 }
			MaxSeen  int
			Overflow uint64
		}
		Buckets []struct {
			Node     uint64
			Blocks   []struct{ ID, Val uint64 }
			Used     []uint64
			Accessed int
		}
	}
)

// recoveredBackend is a memory backend that reports a recovered
// checkpoint blob, as a durable backend does on reopening a directory.
type recoveredBackend struct {
	*memory.Backend
	meta  []byte
	epoch uint64
}

func (b *recoveredBackend) Recovered() ([]byte, uint64, []backend.TailOp) {
	return b.meta, b.epoch, nil
}

// TestCheckpointRefusesMapLayout: a blob of the earlier layout decodes
// into the flat structs without a gob error (its fields are simply
// absent), so only the layout field tells it apart from an empty engine.
// Both ways a blob is restored — reopening a durable directory and
// importing a migrated shard — must refuse it and name the layout rather
// than silently restore an empty engine.
func TestCheckpointRefusesMapLayout(t *testing.T) {
	const blocks, epoch = 1 << 8, 77
	st := mapLayoutShard{Index: 0, Stride: 1, Blocks: blocks, SealEpoch: epoch, Writes: 3,
		Engine: &mapLayoutRing{
			ReqID:  3,
			RNG:    [4]uint64{1, 2, 3, 4},
			Posmap: []map[uint64]uint32{{5: 1, 6: 2}, {0: 1}, {0: 0}},
			Spaces: make([]mapLayoutSpace, 3),
		}}
	st.Engine.Spaces[0].Stash.Entries = []struct{ ID, Leaf, Val uint64 }{{ID: 5, Leaf: 1, Val: 9}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	sealer, err := crypt.NewSealer(testKey)
	if err != nil {
		t.Fatal(err)
	}
	blob := sealer.Blob(^uint64(0), epoch, buf.Bytes())

	wantLayoutErr := func(how string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "layout 0") {
			t.Fatalf("%s: err = %v, want a refusal naming layout 0", how, err)
		}
	}
	_, err = New(0, 1, blocks, testKey, 1, &recoveredBackend{Backend: memory.New(), meta: blob, epoch: epoch})
	wantLayoutErr("reopen", err)

	sh, err := New(0, 1, blocks, testKey, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLayoutErr("migration import", sh.RestoreMeta(blob, epoch))
}
