package palermo

import (
	"bytes"
	"fmt"
	"testing"

	"palermo/internal/rng"
)

// testStore opens the single-tree store: a 1-shard ShardedStore.
func testStore(t *testing.T) *ShardedStore {
	t.Helper()
	return testShardedStore(t, 1)
}

func block(fill byte) []byte {
	return bytes.Repeat([]byte{fill}, BlockSize)
}

func TestStoreRoundTrip(t *testing.T) {
	st := testStore(t)
	if err := st.Write(7, block(0xAA)); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(0xAA)) {
		t.Fatal("round trip failed")
	}
}

func TestStoreOverwrite(t *testing.T) {
	st := testStore(t)
	st.Write(3, block(1))
	st.Write(3, block(2))
	got, err := st.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(2)) {
		t.Fatal("overwrite not visible")
	}
}

func TestStoreUnwrittenReadsZero(t *testing.T) {
	st := testStore(t)
	got, err := st.Read(99)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

// TestStoreErrors: bad ids and short blocks fail at the call on the
// single-tree store, and a bad key fails at open.
func TestStoreErrors(t *testing.T) {
	st := testStore(t)
	if err := st.Write(1<<14, block(0)); err == nil {
		t.Fatal("out-of-range write must error")
	}
	if _, err := st.Read(1 << 14); err == nil {
		t.Fatal("out-of-range read must error")
	}
	if err := st.Write(0, []byte("short")); err == nil {
		t.Fatal("short block must error")
	}
	if _, err := NewShardedStore(ShardedStoreConfig{Shards: 1, Key: []byte("bad")}); err == nil {
		t.Fatal("bad key must error")
	}
}

func TestStoreManyBlocks(t *testing.T) {
	st := testStore(t)
	r := rng.New(5)
	ref := make(map[uint64]byte)
	for i := 0; i < 1000; i++ {
		id := r.Uint64n(1 << 14)
		fill := byte(r.Uint64())
		if err := st.Write(id, block(fill)); err != nil {
			t.Fatal(err)
		}
		ref[id] = fill
	}
	for id, fill := range ref {
		got, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != fill || got[BlockSize-1] != fill {
			t.Fatalf("block %d corrupted", id)
		}
	}
}

func TestStoreTrafficReport(t *testing.T) {
	st := testStore(t)
	st.Write(1, block(1))
	st.Read(1)
	// Writes to DRAM only happen on the periodic eviction (every A=20
	// accesses), so run past one eviction boundary.
	for i := uint64(2); i < 42; i++ {
		st.Read(i)
	}
	rep := st.Traffic()
	if rep.Reads != 41 || rep.Writes != 1 {
		t.Fatalf("ops: %+v", rep)
	}
	if rep.DRAMReads == 0 || rep.DRAMWrites == 0 {
		t.Fatal("traffic not tracked")
	}
	// ORAM amplification: one op costs on the order of 100 lines.
	if rep.AmplificationFactor < 20 || rep.AmplificationFactor > 2000 {
		t.Fatalf("amplification = %.0f, implausible", rep.AmplificationFactor)
	}
	if rep.StashPeak <= 0 || rep.StashPeak > 256 {
		t.Fatalf("stash peak %d", rep.StashPeak)
	}
}

// TestStoreConfigValidation table-drives the ShardedStoreConfig fields
// of the single-tree (Shards: 1) store through the same checks as
// TestShardedStoreConfigValidation.
func TestStoreConfigValidation(t *testing.T) {
	checkConfigs(t, []rejectedConfig{
		{"Blocks overflow", ShardedStoreConfig{Blocks: MaxBlocks * 4, Shards: 1}, "maximum capacity"},
		{"Blocks just past cap", ShardedStoreConfig{Blocks: MaxBlocks + 1, Shards: 1}, "maximum capacity"},
		{"Key short", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: []byte("bad")}, "Key must be"},
		{"Key short, default capacity", ShardedStoreConfig{Shards: 1, Key: []byte("bad")}, "Key must be"},
		{"Key off-size", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: make([]byte, 17)}, "Key must be"},
		{"Key oversize", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: make([]byte, 64)}, "Key must be"},
		{"Backend unknown", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: "etcd"}, "unknown Engine"},
		{"Backend memory with Dir", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendMemory, Dir: t.TempDir()}, "Dir is set"},
		{"Backend wal without Dir", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL}, "requires Dir"},
		{"PipelineDepth negative", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, PipelineDepth: -1}, "PipelineDepth must be"},
		{"PipelineDepth beyond cap", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, PipelineDepth: MaxPipelineDepth + 1}, "PipelineDepth must be"},
	}, []acceptedConfig{
		{"Key AES-128", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: make([]byte, 16)}},
		{"Key AES-192", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: make([]byte, 24)}},
		{"Key AES-256", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Key: make([]byte, 32)}},
		{"Blocks zero defaults", ShardedStoreConfig{Shards: 1}},
		{"Seed zero defaults", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Seed: 0}},
		{"CheckpointEvery negative disables", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: t.TempDir(), CheckpointEvery: -1}},
		{"GroupCommit negative defaults", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: t.TempDir(), GroupCommit: -1}},
		{"GroupCommit synchronous", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: t.TempDir(), GroupCommit: 1}},
		{"PipelineDepth serial", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, PipelineDepth: 1}},
		{"PipelineDepth max", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, PipelineDepth: MaxPipelineDepth}},
		{"PipelineDepth durable serial", ShardedStoreConfig{Blocks: 1 << 10, Shards: 1, Engine: BackendWAL, Dir: t.TempDir(), PipelineDepth: 1}},
	})
}

func TestStoreDefaults(t *testing.T) {
	st, err := NewShardedStore(ShardedStoreConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Blocks() != 1<<20 || st.Shards() != 1 {
		t.Fatalf("single-tree defaults: %d blocks, %d shards", st.Blocks(), st.Shards())
	}
}

// TestStoreShardSizeLimit: a shard's engine addresses at most 2^32 data
// leaves of 16 blocks, so validation accepts a 1-shard store of exactly
// 2^36 blocks and refuses 2^36+1, which a second shard makes legal again.
func TestStoreShardSizeLimit(t *testing.T) {
	checkConfigs(t, []rejectedConfig{
		{"2^36+1 blocks in one shard", ShardedStoreConfig{Blocks: 1<<36 + 1, Shards: 1}, "per-shard maximum"},
	}, []acceptedConfig{
		{"2^36 blocks in one shard", ShardedStoreConfig{Blocks: 1 << 36, Shards: 1}},
		{"2^36+1 blocks over 2 shards", ShardedStoreConfig{Blocks: 1<<36 + 1, Shards: 2}},
	})
}

// ExampleNewShardedStore demonstrates the single-tree store: one shard,
// one ORAM tree behind one worker.
func ExampleNewShardedStore() {
	st, err := NewShardedStore(ShardedStoreConfig{Blocks: 1 << 12, Shards: 1})
	if err != nil {
		panic(err)
	}
	defer st.Close()
	secret := make([]byte, BlockSize)
	copy(secret, "attack at dawn")
	if err := st.Write(7, secret); err != nil {
		panic(err)
	}
	got, err := st.Read(7)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(got[:14]))
	// Output: attack at dawn
}

// ExampleRun demonstrates the simulation entry point.
func ExampleRun() {
	res, err := Run(ProtoPalermo, "rand", Options{Lines: 1 << 20, Requests: 100})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Protocol, res.Workload, res.Requests)
	// Output: Palermo rand 100
}
