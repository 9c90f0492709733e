package shard

import (
	"fmt"

	"palermo/internal/backend"
)

// This file is the shard's half of the pipelined executor (DESIGN.md §9):
// every access splits into an engine stage — seal, oram.PlanAccess,
// oram.Apply, counters, all on the shard's owner goroutine in submission
// order, exactly the serial operation order — and an I/O stage, the
// access's backend block vector, executed by a dedicated per-shard I/O
// goroutine so it is in flight while the owner runs the next access's
// engine stage. Consecutive queued puts coalesce into one
// backend.PutMany, so a burst of writes reaches a durable backend as
// CRC-framed record batches committed per access, not per block.
//
// Concurrency discipline: the ORAM engine, sealer, and counters stay
// confined to the owner goroutine (the engine-per-goroutine rule); once
// EnablePipeline is called, the backend is confined to the I/O goroutine
// and every touch — gets, puts, checkpoints, Len, Close — flows through
// the ordered request queue. Determinism is unchanged because the engine
// stage order is the serial order and the queue preserves backend
// operation order; only wall-clock overlap is new.

// ioKind selects an I/O-stage operation.
type ioKind uint8

const (
	ioPut ioKind = iota + 1
	ioGet
	ioPrefetch
	ioPrefetchSet // multi-line prefetch: one vectored GetMany, results to pfq in order
	ioLen
	ioCheckpoint
	ioClose
	ioSnapshot // migration phase 1: collect every stored sealed block (migrate.go)
)

// ioReq is one operation of the shard's I/O stage.
type ioReq struct {
	kind      ioKind
	put       backend.PutOp // ioPut
	seal      *cryptoJob    // ioPut under the crypto pool: in-flight ciphertext (crypto.go)
	local     uint64        // ioGet / ioPrefetch
	global    uint64        // ioGet / ioPrefetch: public id, the unseal IV address
	locals    []uint64      // ioPrefetchSet: the announced fetch set, in issue order
	globals   []uint64      // ioPrefetchSet: matching public ids
	meta      []byte        // ioCheckpoint
	metaEpoch uint64
	done      chan ioRes // barrier ops only; nil routes the result to the shard's FIFO results channel
}

// ioRes resolves an ioReq.
type ioRes struct {
	sb   backend.Sealed // ioGet
	ok   bool
	job  *cryptoJob    // speculative unseal in flight (crypto pool only)
	n    int           // ioLen
	snap []SealedBlock // ioSnapshot
	err  error
}

// EnablePipeline switches the shard to staged execution with the given
// pipeline depth: the I/O goroutine starts and owns the backend from here
// on. Call once, before the shard starts serving, with depth > 1 (lower
// depths keep the serial executor, which is the depth-1 pipeline).
func (s *Shard) EnablePipeline(depth int) {
	if depth <= 1 || s.ioq != nil {
		return
	}
	s.vbe = backend.Vector(s.be)
	s.ioq = make(chan ioReq, depth)
	// Access results resolve through one FIFO channel: Wait order equals
	// Begin order (the executor discipline), so per-access channels — an
	// allocation and a sync object per op — are unnecessary. Capacity
	// covers every outstanding access plus slack, so the I/O goroutine
	// never blocks publishing a result.
	s.resq = make(chan ioRes, depth+2)
	s.ioDone = make(chan struct{})
	go s.ioLoop()
}

// Pipelined reports whether staged execution is enabled.
func (s *Shard) Pipelined() bool { return s.ioq != nil }

// pfIssue is one planned prefetch awaiting its result: the shard-local id
// it fetched and the block's write-version at issue time (staleness guard).
type pfIssue struct {
	local uint64
	ver   uint64
}

// pfSlot is a prefetched payload drained off pfq but not yet consumed.
type pfSlot struct {
	res ioRes
	ver uint64
}

// EnablePrefetch turns on the Palermo-style prefetch planner hooks: the
// serving layer may announce upcoming reads with PrefetchRead, and the I/O
// goroutine fetches their sealed payloads ahead of the accesses' engine
// stages. window bounds how many prefetches may be outstanding (issued but
// not yet consumed by a BeginRead); past it PrefetchRead declines rather
// than blocks. Requires EnablePipeline first; call before serving starts.
//
// Determinism: a prefetch moves only backend Get traffic earlier. The
// engine transition (RNG draws, stash/tree mutation, leaf selection) still
// happens in Apply, on the owner goroutine, in submission order — so leaf
// traces, payloads, and checkpoints are bit-identical with prefetch on or
// off at any window (the differential suite pins this).
func (s *Shard) EnablePrefetch(window int) {
	if s.ioq == nil || s.pfq != nil || window < 1 {
		return
	}
	s.pfWindow = window
	s.pfq = make(chan ioRes, window)
	s.pfParked = make(map[uint64][]pfSlot)
	s.pfPending = make(map[uint64]int)
	s.pfVer = make(map[uint64]uint64)
}

// pfAdmit does the owner-side bookkeeping for one prefetch line: window
// check, per-line pending count, issue-order queue entry with the line's
// write-version at issue time. Reports whether the line was admitted.
func (s *Shard) pfAdmit(local uint64) bool {
	if local >= s.blocks || s.pfOutstanding >= s.pfWindow {
		return false
	}
	s.pfOutstanding++
	s.pfPending[local]++
	s.pfIssuedQ = append(s.pfIssuedQ, pfIssue{local: local, ver: s.pfVer[local]})
	s.pfIssuedN++
	return true
}

// PrefetchRead asks the I/O stage to fetch local's sealed payload ahead of
// the read access the caller is about to submit. Returns whether a fetch
// was issued (declined when the planner is off, the window is full, or the
// shard is wedged). Owner goroutine only.
//
// Every issued prefetch must eventually be claimed — by a BeginRead of the
// same local, or by DropPrefetch when the serve planner learns the read
// will never materialize (an overload shed, a dedup against an in-flight
// pipeline entry). Either claim frees the line's window slot.
func (s *Shard) PrefetchRead(local uint64) bool {
	if s.pfq == nil || s.closed || s.ioErr != nil || !s.pfAdmit(local) {
		return false
	}
	s.ioq <- ioReq{kind: ioPrefetch, local: local, global: s.Global(local)}
	return true
}

// PrefetchSet announces a multi-line fetch set in one call: deep-planned
// data lines ride one I/O request, which the I/O
// goroutine serves with a single vectored GetMany (consecutive locals
// coalesce into one pread on the blockfile engine). Lines are admitted in
// order until the window fills or an out-of-range id appears; the return
// value n means exactly locals[:n] were issued — the caller owns claiming
// each (BeginRead or DropPrefetch), the rest were declined. Owner
// goroutine only.
func (s *Shard) PrefetchSet(locals []uint64) int {
	if s.pfq == nil || s.closed || s.ioErr != nil {
		return 0
	}
	n := 0
	for _, local := range locals {
		if !s.pfAdmit(local) {
			break
		}
		n++
	}
	switch {
	case n == 0:
	case n == 1:
		s.ioq <- ioReq{kind: ioPrefetch, local: locals[0], global: s.Global(locals[0])}
	default:
		ls := append([]uint64(nil), locals[:n]...)
		gs := make([]uint64, n)
		for i, l := range ls {
			gs[i] = s.Global(l)
		}
		s.ioq <- ioReq{kind: ioPrefetchSet, locals: ls, globals: gs}
	}
	return n
}

// DropPrefetch claims and discards the oldest outstanding prefetch of
// local — the planner's release valve for an announce whose read never
// materialized. The discarded fetch counts as stale (it moved backend
// traffic nobody consumed) and its window slot frees. Blocks briefly when
// the line's payload has not yet arrived; bounded, because the I/O
// goroutine is already fetching it. Owner goroutine only. Reports whether
// an outstanding prefetch existed.
func (s *Shard) DropPrefetch(local uint64) bool {
	if s.pfq == nil || s.pfPending[local] == 0 {
		return false
	}
	s.takePrefetch(local, true)
	return true
}

// takePrefetch claims the oldest outstanding prefetch of local, draining
// pfq in issue order and parking other locals' results on the way. A result
// whose version predates a later write to the block is stale: discarded and
// counted, and the caller falls back to a demand fetch. With drop set the
// claim is a discard (DropPrefetch): the result is never delivered, so it
// counts as stale regardless of freshness. Returns (result, true) only for
// a fresh, non-dropped hit.
func (s *Shard) takePrefetch(local uint64, drop bool) (ioRes, bool) {
	if s.pfq == nil || s.pfPending[local] == 0 {
		return ioRes{}, false
	}
	for {
		if q := s.pfParked[local]; len(q) > 0 {
			sl := q[0]
			if len(q) == 1 {
				delete(s.pfParked, local)
			} else {
				s.pfParked[local] = q[1:]
			}
			return s.claimPrefetch(local, sl, drop)
		}
		iss := s.pfIssuedQ[0]
		s.pfIssuedQ = s.pfIssuedQ[1:]
		res := <-s.pfq
		if iss.local == local {
			return s.claimPrefetch(local, pfSlot{res: res, ver: iss.ver}, drop)
		}
		s.pfParked[iss.local] = append(s.pfParked[iss.local], pfSlot{res: res, ver: iss.ver})
	}
}

// claimPrefetch consumes one outstanding prefetch of local and applies the
// staleness check: fresh results are used, stale ones (a write to the block
// landed after the fetch was issued) are discarded so the caller demand-
// fetches the current payload. A drop claim frees the slot and counts the
// fetch as stale without delivering it.
func (s *Shard) claimPrefetch(local uint64, sl pfSlot, drop bool) (ioRes, bool) {
	s.pfOutstanding--
	fresh := sl.ver == s.pfVer[local]
	if s.pfPending[local]--; s.pfPending[local] == 0 {
		delete(s.pfPending, local)
		delete(s.pfVer, local)
	}
	if drop || !fresh {
		s.pfStaleN++
		return ioRes{}, false
	}
	s.pfUsedN++
	return sl.res, true
}

// ioLoop is the I/O stage: execute queued requests in order, coalescing
// consecutive puts into one vector so a durable backend frames and
// commits them as a batch. Exits on ioClose (after closing the backend)
// or when the queue is closed.
func (s *Shard) ioLoop() {
	defer close(s.ioDone)
	var puts []backend.PutOp
	var seals []*cryptoJob
	flush := func() {
		if len(puts) == 0 {
			return
		}
		// Under the crypto pool, coalescing bought the workers exactly the
		// pipeline's slack: every seal issued while earlier blocks were in
		// flight resolves here, before the vector reaches the backend.
		err := resolveSeals(puts, seals)
		if err == nil {
			err = s.vbe.PutMany(puts)
		}
		for range puts {
			s.resq <- ioRes{err: err}
		}
		puts, seals = puts[:0], seals[:0]
	}
	for req := range s.ioq {
		if req.kind != ioPut {
			if s.ioExec(req) {
				return
			}
			continue
		}
		puts, seals = append(puts, req.put), append(seals, req.seal)
	coalesce:
		for {
			select {
			case nxt, open := <-s.ioq:
				if !open {
					flush()
					return
				}
				if nxt.kind == ioPut {
					puts, seals = append(puts, nxt.put), append(seals, nxt.seal)
					continue
				}
				flush()
				if s.ioExec(nxt) {
					return
				}
				break coalesce
			default:
				flush()
				break coalesce
			}
		}
	}
	flush()
}

// resolveSeals waits for each put's in-flight seal and installs the
// ciphertext. Job order is put order, and epochs were pre-assigned on
// the owner, so the vector the backend sees is byte-identical to the
// inline-crypto executor's.
func resolveSeals(puts []backend.PutOp, seals []*cryptoJob) error {
	for i, j := range seals {
		if j == nil {
			continue
		}
		<-j.done
		if j.err != nil {
			return j.err
		}
		puts[i].Sb.Ct = j.out
	}
	return nil
}

// speculate hands a fetched sealed block to the crypto pool for unseal
// while it rides the result queue back to the owner: the slot header
// names the epoch, the request names the IV address. If the owner's
// epoch-consistency check rejects the block, the job's output is simply
// never read.
func (s *Shard) speculate(req ioReq, res *ioRes) {
	if s.cpool != nil && res.ok {
		res.job = s.cpool.submit(false, req.global, res.sb.Epoch, res.sb.Ct)
	}
}

// ioExec runs one non-put request on the I/O goroutine; reports whether
// the loop should exit (ioClose).
func (s *Shard) ioExec(req ioReq) (stop bool) {
	switch req.kind {
	case ioGet:
		var res ioRes
		res.sb, res.ok = s.vbe.Get(req.local)
		s.speculate(req, &res)
		s.resq <- res
	case ioPrefetch:
		// Prefetch results resolve through their own channel so they never
		// interleave with the access FIFO (resq's Wait-order discipline).
		// pfq's capacity covers the issue window, so this send never blocks.
		var res ioRes
		res.sb, res.ok = s.vbe.Get(req.local)
		s.speculate(req, &res)
		s.pfq <- res
	case ioPrefetchSet:
		// One vectored fetch for the whole announced set (consecutive locals
		// become a single pread on the blockfile engine), then the results
		// ride pfq individually in issue order — exactly what pfIssuedQ on
		// the owner side expects. The window bound covers the whole set, so
		// none of these sends block.
		n := len(req.locals)
		out := make([]backend.Sealed, n)
		oks := make([]bool, n)
		s.vbe.GetMany(req.locals, out, oks)
		for i := range req.locals {
			res := ioRes{sb: out[i], ok: oks[i]}
			s.speculate(ioReq{global: req.globals[i]}, &res)
			s.pfq <- res
		}
	case ioLen:
		req.done <- ioRes{n: s.vbe.Len()}
	case ioCheckpoint:
		req.done <- ioRes{err: s.vbe.Checkpoint(req.meta, req.metaEpoch)}
	case ioClose:
		req.done <- ioRes{err: s.vbe.Close()}
		return true
	case ioSnapshot:
		// Collected on the I/O goroutine — the backend's owner under the
		// pipeline — so the snapshot is consistent with every put queued
		// before this barrier (migrate.go, migration phase 1).
		req.done <- ioRes{snap: s.snapshotBlocks(s.vbe.Get)}
	}
	return false
}

// ioRound runs one I/O request as a barrier: every request queued before
// it (including coalesced puts) has executed when it returns.
func (s *Shard) ioRound(req ioReq) ioRes {
	req.done = make(chan ioRes, 1)
	s.ioq <- req
	return <-req.done
}

// beLen returns the backend's stored-block count through whichever
// executor owns the backend. Under the pipeline this is a barrier, so the
// count is exactly the serial executor's value at the same point of the
// operation stream (the compaction trigger stays deterministic at any
// depth).
func (s *Shard) beLen() int {
	if s.ioq != nil {
		return s.ioRound(ioReq{kind: ioLen}).n
	}
	return s.be.Len()
}

// Access is one staged oblivious operation between its engine stage
// (done when Begin returns) and its I/O completion. Wait must be called
// on the shard's owner goroutine, exactly once per access, in Begin order
// (the FIFO completion discipline the serve worker and the synchronous
// Read/Write follow), with at most the pipeline depth of accesses
// outstanding.
type Access struct {
	s      *Shard
	write  bool
	global uint64
	expect uint64 // reads: the epoch the engine transition predicts
	seq    uint64 // Begin order; Wait asserts FIFO discipline
	res    ioRes
	ready  bool
}

// BeginWrite runs the engine stage of an oblivious write — seal, the
// Plan/Apply engine transition, counters — and launches its backend store
// vector. The returned Access resolves when the record batch has been
// accepted by the backend (durability follows the backend's group-commit
// policy, as in the serial executor).
func (s *Shard) BeginWrite(local uint64, data []byte) (*Access, error) {
	if local >= s.blocks {
		return nil, fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	if len(data) != BlockBytes {
		return nil, fmt.Errorf("palermo: block must be %d bytes, got %d", BlockBytes, len(data))
	}
	if s.closed {
		return nil, fmt.Errorf("palermo: shard %d is closed", s.index)
	}
	if s.ioErr != nil {
		return nil, s.ioErr
	}
	global := s.Global(local)
	a := &Access{s: s, write: true, global: global}
	var epoch uint64
	if s.cpool != nil && !s.teeOn {
		// Crypto-pool path: the owner assigns the epoch — the counter is
		// owner-confined state, so the epoch stream is identical at every
		// worker count — and hands the pure transform to a worker; the I/O
		// stage installs the ciphertext before the vector reaches the
		// backend. A live migration tee needs the ciphertext at Begin, so
		// while teeOn the write falls back to the inline path below.
		epoch = s.sealer.Assign()
		job := s.cpool.submit(true, global, epoch, append([]byte(nil), data...))
		if s.pfq != nil && s.pfPending[local] > 0 {
			s.pfVer[local]++
		}
		s.beginSeq++
		a.seq = s.beginSeq
		s.ioq <- ioReq{kind: ioPut, put: backend.PutOp{Local: local, Sb: backend.Sealed{Epoch: epoch}}, seal: job}
	} else {
		ct, e, err := s.sealer.Seal(global, data)
		if err != nil {
			return nil, err
		}
		epoch = e
		if s.ioq != nil {
			if s.pfq != nil && s.pfPending[local] > 0 {
				// A prefetch of this block is in flight or parked; this write
				// supersedes its payload, so invalidate it (the consuming read
				// will discard it as stale and demand-fetch the fresh epoch).
				s.pfVer[local]++
			}
			s.beginSeq++
			a.seq = s.beginSeq
			s.ioq <- ioReq{kind: ioPut, put: backend.PutOp{Local: local, Sb: backend.Sealed{Ct: ct, Epoch: epoch}}}
			s.teeWrite(local, ct, epoch)
		} else {
			if err := s.be.Put(local, backend.Sealed{Ct: ct, Epoch: epoch}); err != nil {
				return nil, fmt.Errorf("palermo: backend write of block %d: %w", global, err)
			}
			s.teeWrite(local, ct, epoch)
			a.ready = true
		}
	}
	st := s.engine.PlanAccess(local, true, epoch)
	plan := st.Apply()
	s.writes++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, true, plan.DataLeaf)
	if err := s.maybeCheckpoint(global); err != nil {
		if s.ioq == nil {
			return nil, err
		}
		if s.beginSeq-s.waitSeq == 1 {
			// Only this access is outstanding: its completion slot can be
			// consumed in FIFO order, so the checkpoint failure surfaces on
			// this write exactly like the serial executor's.
			a.Wait()
			return nil, err
		}
		// Earlier accesses are still in flight (their completion slots are
		// owned by the caller), so consuming ours here would mis-pair every
		// outstanding access with the wrong I/O result. Wedge the shard
		// instead: this write is complete, and every later Begin fails
		// fast with the checkpoint error.
		if s.ioErr == nil {
			s.ioErr = err
		}
		return a, nil
	}
	return a, nil
}

// BeginRead runs the engine stage of an oblivious read and launches the
// fetch of the access's planned block vector, which is in flight while
// the engine transition (Apply) executes. Wait returns the plaintext.
func (s *Shard) BeginRead(local uint64) (*Access, error) {
	if local >= s.blocks {
		return nil, fmt.Errorf("palermo: internal: block %d outside shard %d capacity %d", s.Global(local), s.index, s.blocks)
	}
	if s.closed {
		return nil, fmt.Errorf("palermo: shard %d is closed", s.index)
	}
	if s.ioErr != nil {
		return nil, s.ioErr
	}
	a := &Access{s: s, global: s.Global(local)}
	st := s.engine.PlanAccess(local, false, 0)
	if s.ioq != nil {
		var ids [1]uint64
		fetch := st.FetchSet(ids[:0])
		if res, ok := s.takePrefetch(fetch[0], false); ok {
			// The planner already moved this payload: the access resolves
			// immediately and never enters the FIFO completion queue.
			a.res = res
			a.ready = true
		} else {
			s.beginSeq++
			a.seq = s.beginSeq
			s.ioq <- ioReq{kind: ioGet, local: fetch[0], global: a.global}
		}
	}
	plan := st.Apply()
	a.expect = plan.Val
	s.reads++
	s.trafficR += uint64(plan.Reads())
	s.trafficW += uint64(plan.Writes())
	s.record(local, false, plan.DataLeaf)
	if s.ioq == nil {
		a.res.sb, a.res.ok = s.be.Get(local)
		a.ready = true
	}
	return a, nil
}

// Wait resolves the access: the read plaintext (after the epoch
// consistency check and unseal) or the write's backend outcome. An I/O
// failure wedges the shard — every later Begin fails fast with the same
// error, because the engine has already advanced past the lost write.
func (a *Access) Wait() ([]byte, error) {
	s := a.s
	if !a.ready {
		s.waitSeq++
		if a.seq != s.waitSeq {
			panic(fmt.Sprintf("shard: Access.Wait out of Begin order (access %d, expected %d)", a.seq, s.waitSeq))
		}
		a.res = <-s.resq
		a.ready = true
	}
	if a.write {
		if a.res.err != nil {
			err := fmt.Errorf("palermo: backend write of block %d: %w", a.global, a.res.err)
			if s.ioErr == nil {
				s.ioErr = err
			}
			return nil, err
		}
		return nil, nil
	}
	if a.res.err != nil {
		if s.ioErr == nil {
			s.ioErr = a.res.err
		}
		return nil, a.res.err
	}
	if !a.res.ok {
		return make([]byte, BlockBytes), nil
	}
	if a.expect != a.res.sb.Epoch {
		return nil, fmt.Errorf("palermo: protocol state diverged for block %d (epoch %d != %d)",
			a.global, a.expect, a.res.sb.Epoch)
	}
	if j := a.res.job; j != nil {
		// The pool unsealed speculatively with the slot's own epoch; the
		// check above just proved that epoch is the one the engine
		// transition predicted, so the worker's plaintext is the answer.
		<-j.done
		return j.out, j.err
	}
	return s.sealer.Open(a.global, a.res.sb.Epoch, a.res.sb.Ct)
}
