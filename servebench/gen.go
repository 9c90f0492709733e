package main

import (
	"encoding/binary"

	"palermo/internal/rng"
)

// blockBytes is the store's block size.
const blockBytes = 64

// mix hashes b into a with splitmix64's finalizer: the seed of each
// generator stream, and the step of the payload checksum.
func mix(a, b uint64) uint64 {
	z := (a ^ b*0xff51afd7ed558ccd) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scatter maps a Zipf rank onto a block id with an odd-multiplier
// bijection of [0, n) (n a power of two), so the hot ids are spread over
// the id space and both shards instead of sitting at ids 0, 1, 2, ...
func scatter(rank, n uint64) uint64 { return (rank * 0x9e3779b97f4a7c15) & (n - 1) }

// payload is the block the benchmark stores as version ver of id: the id
// and version in clear, filler and a checksum keyed by the run's key, so a
// read can name what it holds and be checked byte for byte.
func payload(key, id, ver uint64) []byte {
	b := make([]byte, blockBytes)
	binary.LittleEndian.PutUint64(b[0:], id)
	binary.LittleEndian.PutUint64(b[8:], ver)
	r := rng.New(mix(key, id) ^ ver)
	for off := 16; off < 56; off += 8 {
		binary.LittleEndian.PutUint64(b[off:], r.Uint64())
	}
	binary.LittleEndian.PutUint64(b[56:], checksum(key, b[:56]))
	return b
}

func checksum(key uint64, b []byte) uint64 {
	h := key
	for off := 0; off+8 <= len(b); off += 8 {
		h = mix(h, binary.LittleEndian.Uint64(b[off:]))
	}
	return h
}

// parsePayload returns the (id, version) a block claims and whether the
// block is exactly what payload would build for that claim.
func parsePayload(key uint64, b []byte) (id, ver uint64, ok bool) {
	if len(b) != blockBytes {
		return 0, 0, false
	}
	id = binary.LittleEndian.Uint64(b[0:])
	ver = binary.LittleEndian.Uint64(b[8:])
	want := payload(key, id, ver)
	for i := range b {
		if b[i] != want[i] {
			return id, ver, false
		}
	}
	return id, ver, true
}
