// Example durable_store demonstrates the WAL block-state backend end to
// end: a store that survives a clean restart bit-exactly and a hard kill
// with bounded loss.
//
// The demo runs three lives over one directory:
//
//  1. A child process (this binary re-exec'd) opens a WAL-backed store
//     with synchronous group commit, writes a batch of blocks, and exits
//     WITHOUT calling Close — simulating a kill -9. No checkpoint is
//     written; everything must come back from the log tail.
//  2. The parent reopens the directory: recovery replays the tail through
//     the ORAM engine and every fsynced write reads back byte-identical.
//     It then writes more blocks and Closes cleanly (checkpoint).
//  3. A final open restores from the checkpoint alone (empty tail) and
//     verifies both generations of writes plus the recovered traffic
//     counters.
//
// Run with: go run ./examples/durable_store
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"

	"palermo"
)

const (
	childEnv = "PALERMO_DURABLE_STORE_LIFE1"
	blocks   = 1 << 12
	writes   = 96
)

func cfg(dir string) palermo.ShardedStoreConfig {
	return palermo.ShardedStoreConfig{
		Blocks: blocks,
		Shards: 2,
		Engine: palermo.BackendWAL,
		Dir:    dir,
		// GroupCommit 1 = every write fsyncs before returning, so the
		// kill in life 1 loses nothing. Raise it and the kill may cost
		// up to GroupCommit-1 trailing writes per shard — never more.
		GroupCommit: 1,
	}
}

func payload(gen, id uint64) []byte {
	b := make([]byte, palermo.BlockSize)
	for i := range b {
		b[i] = byte(gen*131 + id*7 + uint64(i))
	}
	return b
}

// life1 is the child: write, then die without Close.
func life1(dir string) {
	st, err := palermo.NewShardedStore(cfg(dir))
	check(err)
	for id := uint64(0); id < writes; id++ {
		check(st.Write(id, payload(1, id)))
	}
	// No Close: the deferred checkpoint never happens. The un-buffered
	// group commit already pushed every record to stable storage.
	os.Exit(0)
}

func main() {
	dir := os.Getenv(childEnv)
	if dir != "" {
		life1(dir)
	}

	dir, err := os.MkdirTemp("", "palermo-durable-*")
	check(err)
	defer os.RemoveAll(dir)

	fmt.Println("life 1: child writes", writes, "blocks, then dies without Close (kill -9)")
	child := exec.Command(os.Args[0])
	child.Env = append(os.Environ(), childEnv+"="+dir)
	child.Stdout, child.Stderr = os.Stdout, os.Stderr
	check(child.Run())

	fmt.Println("life 2: reopen — recovery replays the WAL tail through the ORAM engine")
	st, err := palermo.NewShardedStore(cfg(dir))
	check(err)
	rep := st.Traffic()
	fmt.Printf("  recovered %d writes (DRAM traffic regenerated: %d line reads)\n", rep.Writes, rep.DRAMReads)
	for id := uint64(0); id < writes; id++ {
		got, err := st.Read(id)
		check(err)
		if !bytes.Equal(got, payload(1, id)) {
			fail("life-1 block %d diverged after crash recovery", id)
		}
	}
	fmt.Println("  all life-1 blocks read back byte-identical")
	for id := uint64(writes); id < 2*writes; id++ {
		check(st.Write(id, payload(2, id)))
	}
	check(st.Close()) // clean shutdown: flush + sealed metadata checkpoint
	fmt.Println("  wrote", writes, "more blocks and closed cleanly (checkpoint)")

	fmt.Println("life 3: reopen — exact restore from the checkpoint, no tail replay")
	st, err = palermo.NewShardedStore(cfg(dir))
	check(err)
	rep2 := st.Traffic()
	for id := uint64(0); id < 2*writes; id++ {
		gen := uint64(1)
		if id >= writes {
			gen = 2
		}
		got, err := st.Read(id)
		check(err)
		if !bytes.Equal(got, payload(gen, id)) {
			fail("block %d diverged after clean restart", id)
		}
	}
	check(st.Close())
	fmt.Printf("  all %d blocks verified; counters survived both restarts (%d reads, %d writes, stash peak %d)\n",
		2*writes, rep2.Reads, rep2.Writes, rep2.StashPeak)
	fmt.Println("durable_store: OK")
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "durable_store: "+format+"\n", args...)
	os.Exit(1)
}
