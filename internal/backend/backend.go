// Package backend defines the pluggable block-state storage interface of
// the oblivious store: the untrusted party of the paper's threat model
// (§VI), which holds sealed payloads and — for durable implementations —
// an opaque, controller-sealed metadata checkpoint.
//
// A Backend stores exactly the view the untrusted storage of §VI already
// observes: (shard-local id, ciphertext, epoch) triples in access order.
// Ids are public routing state (the client presented them in plaintext at
// the trusted service boundary), ciphertexts are AES-CTR sealed under
// per-seal unique IVs, and epochs are sealing counters the bucket headers
// of a real design expose anyway. Persisting that view is therefore
// obliviousness-neutral; DESIGN.md §7 states the full argument. Controller
// metadata (position maps, stash residency) is the opposite — trusted
// secrets — so Checkpoint only ever receives it pre-sealed as an opaque
// blob.
//
// Implementations: memory (the process-private map the store always had —
// the default), wal (a CRC-framed append-only log with group-committed
// fsync and compacted snapshots, surviving restarts and crashes, over a
// RAM mirror of every block), and blockfile (fixed 512-byte slots in a
// paged data file plus a metadata-only log, whose checkpoints persist only
// the sealed metadata blob).
//
// A Backend is confined to its shard's worker goroutine, exactly like the
// ORAM engine above it, so implementations need no internal locking.
package backend

// Sealed is one sealed block as the untrusted storage sees it. Put takes
// ownership of Ct and Get returns the stored slice; callers must not
// mutate either (the sealing layer allocates a fresh ciphertext per seal).
type Sealed struct {
	Ct    []byte
	Epoch uint64
}

// EpochReserveLocal is the reserved Local value marking an epoch
// reservation in a recovered tail: no block was written, but the sealing
// counter must advance to at least Epoch. Durable backends log one before
// persisting each checkpoint so that a crash mid-checkpoint can never
// lead a recovered sealer to re-issue the checkpoint blob's IV. Real ids
// can never collide with it (capacities are capped far below 2^64).
const EpochReserveLocal = ^uint64(0)

// TailOp is one logged write a durable backend recovered after the last
// checkpoint. The shard replays tail ops through its ORAM engine so the
// protocol metadata (leaf maps, stash, bucket counters) re-converges with
// the recovered sealed payloads. A TailOp with Local == EpochReserveLocal
// carries no payload and only advances the sealing counter.
type TailOp struct {
	Local uint64
	Epoch uint64
}

// PutOp is one sealed-block store of a vector put: the unit a whole-access
// (or whole-batch) path write is expressed in.
type PutOp struct {
	Local uint64
	Sb    Sealed
}

// VectorBackend is the vector extension of Backend: whole-access block
// sets move in one call instead of one call per block, so a durable
// implementation can frame and commit them as a unit (the WAL appends one
// CRC-framed record batch per PutMany and group-commits per access rather
// than per block) and a remote one could round-trip them in one message.
// Backends that do not implement it are adapted by Vector with per-block
// loops.
type VectorBackend interface {
	Backend
	// GetMany looks up locals[i] into out[i]/ok[i] for every i. The three
	// slices must have equal length; out and ok are caller-allocated so a
	// hot path can reuse them.
	GetMany(locals []uint64, out []Sealed, ok []bool)
	// PutMany stores every op, in order, as one unit. Durable
	// implementations append the whole vector under a single batch frame
	// and count it as one unit of the group-commit policy. On error the
	// backend's single-Put failure semantics apply to the whole vector (a
	// durable backend wedges; the in-memory state is not partially
	// updated unless the implementation documents otherwise).
	PutMany(ops []PutOp) error
}

// Vector returns b's native vector form when it implements VectorBackend,
// or a loop adapter otherwise — so third-party Backend implementations
// keep working under the pipelined executor unchanged.
func Vector(b Backend) VectorBackend {
	if vb, ok := b.(VectorBackend); ok {
		return vb
	}
	return loopVector{b}
}

// loopVector adapts a scalar Backend with per-block loops. PutMany is not
// atomic: a mid-vector error leaves earlier puts applied (exactly what N
// scalar Puts would have done).
type loopVector struct{ Backend }

func (v loopVector) GetMany(locals []uint64, out []Sealed, ok []bool) {
	for i, local := range locals {
		out[i], ok[i] = v.Get(local)
	}
}

func (v loopVector) PutMany(ops []PutOp) error {
	for _, op := range ops {
		if err := v.Put(op.Local, op.Sb); err != nil {
			return err
		}
	}
	return nil
}

// Backend stores a shard's sealed blocks keyed by shard-local id, plus the
// shard's sealed metadata checkpoints.
type Backend interface {
	// Get returns the sealed block stored under local, if any.
	Get(local uint64) (Sealed, bool)
	// Put stores a sealed block under local, overwriting any prior value.
	// Durable implementations append the write to stable storage subject to
	// their group-commit policy; an un-fsynced tail may be lost on crash.
	Put(local uint64, sb Sealed) error
	// Len returns the number of distinct ids currently stored.
	Len() int
	// Durable reports whether the backend survives process exit. Shards
	// skip checkpoint encoding entirely for non-durable backends.
	Durable() bool
	// Checkpoint durably persists meta (an opaque, controller-sealed
	// metadata blob encrypted under metaEpoch) together with every sealed
	// block currently stored, then compacts the log. After a successful
	// Checkpoint, recovery needs no tail replay.
	Checkpoint(meta []byte, metaEpoch uint64) error
	// Recovered returns what opening the backend found: the meta blob of
	// the last completed Checkpoint (nil if none) and the ordered log tail
	// written after it (empty after a clean Close).
	Recovered() (meta []byte, metaEpoch uint64, tail []TailOp)
	// Flush forces buffered writes to stable storage (no-op when not
	// durable).
	Flush() error
	// Close flushes and releases resources. The backend is unusable after.
	Close() error
}
