package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"net"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"
	"time"

	"palermo"
	"palermo/internal/backend"
	"palermo/internal/backend/blockfile"
	"palermo/internal/backend/wal"
	"palermo/internal/netserve"
	"palermo/internal/serve"
	"palermo/internal/shard"
	"palermo/internal/wire"
)

// The store runs its defaults: only these four fields are set, so a tuning
// knob shows up here only once it becomes the default.
func storeConfig(dir string, blocks uint64) palermo.ShardedStoreConfig {
	return palermo.ShardedStoreConfig{Engine: palermo.BackendBlockfile, Dir: dir, Blocks: blocks, Shards: 2}
}

// The defaults NewShardedStore applies to the fields storeConfig leaves
// zero, restated so the traced stack can build the same layers by hand.
// checkDefaults compares them with the program's source. The equivalence
// replay cannot catch a drift in the pipeline depth: payloads and
// Traffic() are identical at every depth, and a sequential replay never
// fills a pipeline.
const (
	defaultPipelineDepth = 2
	defaultSeed          = 1
)

var defaultKey = []byte("palermo-demo-key")

// checkDefaults parses (*ShardedStoreConfig).defaults in the program's
// sharded.go at path and fails unless every field it sets, other than
// the ones storeConfig sets, gets the literal value the traced stack
// restates. A default that is added, changed, or no longer a literal
// fails the traced run instead of silently changing what it measures.
func checkDefaults(path string) error {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return fmt.Errorf("defaults check: %w", err)
	}
	want := map[string]string{
		"Key":           fmt.Sprintf("[]byte(%q)", defaultKey),
		"Seed":          strconv.Itoa(defaultSeed),
		"PipelineDepth": strconv.Itoa(defaultPipelineDepth),
	}
	got := map[string]string{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if ok && fd.Name.Name == "defaults" && fd.Recv != nil && types.ExprString(fd.Recv.List[0].Type) == "*ShardedStoreConfig" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok {
					for i, lhs := range as.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							got[sel.Sel.Name] = types.ExprString(as.Rhs[i])
						}
					}
				}
				return true
			})
		}
	}
	delete(got, "Blocks") // storeConfig sets these
	delete(got, "Shards")
	for field, v := range got {
		if want[field] != v {
			return fmt.Errorf("defaults check: %s defaults %s to %s; the traced stack has %q", path, field, v, want[field])
		}
	}
	for field, v := range want {
		if _, ok := got[field]; !ok {
			return fmt.Errorf("defaults check: %s no longer defaults %s; the traced stack has %s", path, field, v)
		}
	}
	return nil
}

// store is what the workloads need from a sharded store: satisfied by
// *palermo.ShardedStore and by the traced rebuild of it.
type store interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, blocks [][]byte) error
	Stats() palermo.ServiceStats
	Traffic() palermo.TrafficReport
	FsyncLag() (uint64, time.Duration)
	Close() error
}

// target is what a workload drives: a store in-process or a network client.
type target interface {
	Read(id uint64) ([]byte, error)
	Write(id uint64, data []byte) error
}

// stack is one running serving stack: the store and, for the network
// workload, the server in front of it and the client talking to it.
type stack struct {
	st     store
	srv    interface{ Close() error }
	served chan error
	cl     *palermo.Client
}

func (s *stack) target() target {
	if s.cl != nil {
		return s.cl
	}
	return s.st
}

// open starts a stack over dir: plain (the public constructors) or traced
// (the same layers rebuilt with timing wrappers recording into tr).
func open(dir string, blocks uint64, network bool, tr *tracer) (*stack, error) {
	var s stack
	var err error
	if tr == nil {
		s.st, err = palermo.NewShardedStore(storeConfig(dir, blocks))
	} else {
		s.st, err = openTraced(dir, blocks, tr)
	}
	if err != nil {
		return nil, err
	}
	if !network {
		return &s, nil
	}
	var ns interface {
		Serve(net.Listener) error
		Close() error
	}
	if tr == nil {
		ns, err = palermo.NewServer(s.st.(*palermo.ShardedStore), palermo.ServerConfig{})
	} else {
		ns, err = netserve.New(&timedNetStore{st: s.st, blocks: blocks, tr: tr}, netserve.Config{})
	}
	if err != nil {
		s.st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.st.Close()
		return nil, err
	}
	s.srv, s.served = ns, make(chan error, 1)
	go func() { s.served <- ns.Serve(ln) }()
	if s.cl, err = palermo.Dial(ln.Addr().String(), palermo.ClientConfig{Conns: 2}); err != nil {
		s.close()
		return nil, err
	}
	return &s, nil
}

// close shuts the stack down client first and reports the first error.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.cl != nil {
		keep(s.cl.Close())
	}
	if s.srv != nil {
		keep(s.srv.Close())
		if err := <-s.served; !errors.Is(err, palermo.ErrServerClosed) {
			keep(err)
		}
	}
	keep(s.st.Close())
	return first
}

// tracer holds the traced run's per-layer timings. Every field is safe for
// concurrent use: wrappers record from client goroutines, connection
// goroutines, shard workers and shard I/O goroutines at once.
type tracer struct {
	storeCall    hist          // netserve.Store calls, one per frame
	storeOps     atomic.Uint64 // ops those calls carried
	storeOpNanos atomic.Uint64 // Σ call time × ops: each op waits the whole call
	serveCall    hist          // per op, submit to future resolved
	begin, wait  hist
	get, put     hist
	getLines     atomic.Uint64
	putLines     atomic.Uint64
	checkpoints  hist
}

// openTraced rebuilds what NewShardedStore builds for storeConfig — a
// manifest, one blockfile backend per shard directory, one shard engine
// per backend with the pipeline at its default depth, one serve.Service
// over them — with timing wrappers at the shard and blockfile boundaries.
func openTraced(dir string, blocks uint64, tr *tracer) (*tracedStore, error) {
	const shards = 2
	router, err := shard.NewRouter(blocks, shards)
	if err != nil {
		return nil, err
	}
	if err := wal.EnsureManifest(dir, wal.Manifest{Version: wal.ManifestVersion, Blocks: blocks, Shards: shards, Engine: palermo.BackendBlockfile}); err != nil {
		return nil, err
	}
	t := &tracedStore{router: router}
	backends := make([]serve.Backend, shards)
	fail := func(err error) (*tracedStore, error) {
		for _, be := range t.bes {
			be.Close()
		}
		return nil, err
	}
	for i := 0; i < shards; i++ {
		bf, err := blockfile.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", i)), blockfile.Options{})
		if err != nil {
			return fail(err)
		}
		be := &timedBackend{Backend: bf, tr: tr}
		if err := keepsInterfaces(bf, be, backendIfaces, nil); err != nil {
			bf.Close()
			return fail(err)
		}
		sh, err := shard.New(i, shards, router.ShardBlocks(i), defaultKey, shard.DeriveSeed(defaultSeed, i), be)
		if err != nil {
			bf.Close()
			return fail(err)
		}
		t.bes = append(t.bes, be)
		sh.EnablePipeline(defaultPipelineDepth)
		t.shards = append(t.shards, sh)
		ts := timedShard{Shard: sh, tr: tr}
		if err := keepsInterfaces(sh, ts, shardIfaces, []reflect.Type{stagedIface}); err != nil {
			return fail(err)
		}
		backends[i] = ts
	}
	t.svc = serve.New(backends, serve.Config{PipelineDepth: defaultPipelineDepth})
	t.tr = tr
	return t, nil
}

// The optional interfaces the program type-asserts on each layer. A
// wrapper that dropped one would silently route the traced run through a
// different code path (backend.Vector's per-block loop adapter, the serve
// worker's serial executor, or zeroed telemetry).
var (
	backendIfaces = []reflect.Type{
		reflect.TypeFor[backend.VectorBackend](),
		reflect.TypeFor[interface {
			FsyncStats() (uint64, time.Duration)
		}](),
		reflect.TypeFor[interface{ SlotCacheStats() (uint64, uint64) }](),
	}
	stagedIface = reflect.TypeFor[serve.StagedBackend]()
	shardIfaces = []reflect.Type{
		reflect.TypeFor[serve.PrefetchBackend](),
		reflect.TypeFor[serve.DeepPrefetchBackend](),
	}
)

// keepsInterfaces checks that wrapper implements every interface of ifaces
// that inner implements, and every interface of always.
func keepsInterfaces(inner, wrapper any, ifaces, always []reflect.Type) error {
	wt := reflect.TypeOf(wrapper)
	for _, it := range ifaces {
		if reflect.TypeOf(inner).Implements(it) && !wt.Implements(it) {
			return fmt.Errorf("traced %v drops %v", wt, it)
		}
	}
	for _, it := range always {
		if !wt.Implements(it) {
			return fmt.Errorf("traced %v does not implement %v", wt, it)
		}
	}
	return nil
}

// tracedStore is the traced rebuild of palermo.ShardedStore; serve.call
// spans are timed around its calls into the service.
type tracedStore struct {
	router shard.Router
	svc    *serve.Service
	shards []*shard.Shard
	bes    []*timedBackend
	tr     *tracer
}

func (t *tracedStore) check(id uint64) error {
	if id >= t.router.Blocks() {
		return fmt.Errorf("block %d outside capacity %d", id, t.router.Blocks())
	}
	return nil
}

func (t *tracedStore) Read(id uint64) ([]byte, error) {
	if err := t.check(id); err != nil {
		return nil, err
	}
	sh, local := t.router.Route(id)
	t0 := time.Now()
	data, err := t.svc.Read(sh, local)
	t.tr.serveCall.add(time.Since(t0))
	return data, err
}

func (t *tracedStore) Write(id uint64, data []byte) error {
	if err := t.check(id); err != nil {
		return err
	}
	sh, local := t.router.Route(id)
	t0 := time.Now()
	err := t.svc.Write(sh, local, data)
	t.tr.serveCall.add(time.Since(t0))
	return err
}

func (t *tracedStore) ReadBatch(ids []uint64) ([][]byte, error) {
	reqs := make([]serve.Req, len(ids))
	for i, id := range ids {
		if err := t.check(id); err != nil {
			return nil, err
		}
		reqs[i] = serve.Req{Op: serve.OpRead, ID: id}
	}
	return t.batch(reqs)
}

func (t *tracedStore) WriteBatch(ids []uint64, blocks [][]byte) error {
	if len(ids) != len(blocks) {
		return fmt.Errorf("WriteBatch got %d ids but %d blocks", len(ids), len(blocks))
	}
	reqs := make([]serve.Req, len(ids))
	for i, id := range ids {
		if err := t.check(id); err != nil {
			return err
		}
		reqs[i] = serve.Req{Op: serve.OpWrite, ID: id, Data: blocks[i]}
	}
	_, err := t.batch(reqs)
	return err
}

// batch submits each shard's subset of reqs (global ids) as one atomic
// batch, as ShardedStore's batch calls do, and times every op from
// submission to its own future resolving.
func (t *tracedStore) batch(reqs []serve.Req) ([][]byte, error) {
	n := t.router.Shards()
	perShard := make([][]serve.Req, n)
	pos := make([][]int, n)
	for i, q := range reqs {
		sh, local := t.router.Route(q.ID)
		q.ID = local
		perShard[sh] = append(perShard[sh], q)
		pos[sh] = append(pos[sh], i)
	}
	t0 := time.Now()
	futs := make([][]*serve.Future, n)
	var first error
	for sh, rs := range perShard {
		if len(rs) == 0 {
			continue
		}
		fs, err := t.svc.SubmitBatch(sh, rs)
		if err != nil && first == nil {
			first = err
		}
		futs[sh] = fs
	}
	out := make([][]byte, len(reqs))
	for sh, fs := range futs {
		for j, f := range fs {
			data, err := f.Wait()
			t.tr.serveCall.add(time.Since(t0))
			if err != nil && first == nil {
				first = err
			}
			out[pos[sh][j]] = data
		}
	}
	return out, first
}

func (t *tracedStore) Stats() palermo.ServiceStats { return t.svc.Stats() }

// Traffic sums the shard counters the way ShardedStore.Traffic does:
// snapshotted on each shard's worker, directly once the service is closed.
func (t *tracedStore) Traffic() palermo.TrafficReport {
	var rep palermo.TrafficReport
	for i, sh := range t.shards {
		var c shard.Counters
		if err := t.svc.Sync(i, func() { c = sh.Snapshot() }); err != nil {
			t.svc.WaitClosed()
			c = sh.Snapshot()
		}
		rep.Reads += c.Reads
		rep.Writes += c.Writes
		rep.DRAMReads += c.DRAMReads
		rep.DRAMWrites += c.DRAMWrites
		rep.TreeTopHits += c.TreeTopHits
		rep.PrefetchIssued += c.PrefetchIssued
		rep.PrefetchUsed += c.PrefetchUsed
		rep.PrefetchStale += c.PrefetchStale
		rep.StashPeak = max(rep.StashPeak, c.StashPeak)
	}
	if ops := rep.Reads + rep.Writes; ops > 0 {
		rep.AmplificationFactor = float64(rep.DRAMReads+rep.DRAMWrites) / float64(ops)
	}
	for _, be := range t.bes {
		h, m := be.SlotCacheStats()
		rep.SlotCacheHits += h
		rep.SlotCacheMisses += m
	}
	return rep
}

func (t *tracedStore) FsyncLag() (uint64, time.Duration) {
	var n uint64
	var d time.Duration
	for _, be := range t.bes {
		c, w := be.FsyncStats()
		n, d = n+c, d+w
	}
	return n, d
}

func (t *tracedStore) Close() error { return t.svc.Close() }

// timedShard is the shard boundary: serve's StagedBackend with Begin and
// Access.Wait timed. Embedding keeps every other method the serve worker
// may type-assert (the prefetch family) on the wrapper.
type timedShard struct {
	*shard.Shard
	tr *tracer
}

var _ serve.DeepPrefetchBackend = timedShard{}
var _ serve.StagedBackend = timedShard{}

func (s timedShard) BeginRead(local uint64) (serve.Access, error) {
	t0 := time.Now()
	a, err := s.Shard.BeginRead(local)
	s.tr.begin.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	return timedAccess{a, s.tr}, nil
}

func (s timedShard) BeginWrite(local uint64, data []byte) (serve.Access, error) {
	t0 := time.Now()
	a, err := s.Shard.BeginWrite(local, data)
	s.tr.begin.add(time.Since(t0))
	if err != nil {
		return nil, err
	}
	return timedAccess{a, s.tr}, nil
}

type timedAccess struct {
	a  *shard.Access
	tr *tracer
}

func (a timedAccess) Wait() ([]byte, error) {
	t0 := time.Now()
	data, err := a.a.Wait()
	a.tr.wait.add(time.Since(t0))
	return data, err
}

// timedBackend is the blockfile boundary: the vector calls, scalar calls
// and checkpoints are timed; embedding keeps Direct, FsyncStats and
// SlotCacheStats.
type timedBackend struct {
	*blockfile.Backend
	tr *tracer
}

var _ backend.VectorBackend = (*timedBackend)(nil)

func (b *timedBackend) Get(local uint64) (backend.Sealed, bool) {
	t0 := time.Now()
	sb, ok := b.Backend.Get(local)
	b.tr.get.add(time.Since(t0))
	b.tr.getLines.Add(1)
	return sb, ok
}

func (b *timedBackend) GetMany(locals []uint64, out []backend.Sealed, ok []bool) {
	t0 := time.Now()
	b.Backend.GetMany(locals, out, ok)
	b.tr.get.add(time.Since(t0))
	b.tr.getLines.Add(uint64(len(locals)))
}

func (b *timedBackend) Put(local uint64, sb backend.Sealed) error {
	t0 := time.Now()
	err := b.Backend.Put(local, sb)
	b.tr.put.add(time.Since(t0))
	b.tr.putLines.Add(1)
	return err
}

func (b *timedBackend) PutMany(ops []backend.PutOp) error {
	t0 := time.Now()
	err := b.Backend.PutMany(ops)
	b.tr.put.add(time.Since(t0))
	b.tr.putLines.Add(uint64(len(ops)))
	return err
}

func (b *timedBackend) Checkpoint(meta []byte, metaEpoch uint64) error {
	t0 := time.Now()
	err := b.Backend.Checkpoint(meta, metaEpoch)
	b.tr.checkpoints.add(time.Since(t0))
	return err
}

// timedNetStore is the netserve boundary: the netserve.Store the traced
// server fronts, with each call (one per request frame) timed.
type timedNetStore struct {
	st     store
	blocks uint64
	tr     *tracer
}

func (n *timedNetStore) done(t0 time.Time, ops int) {
	d := time.Since(t0)
	n.tr.storeCall.add(d)
	n.tr.storeOps.Add(uint64(ops))
	n.tr.storeOpNanos.Add(uint64(d) * uint64(ops))
}

func (n *timedNetStore) Read(id uint64) ([]byte, error) {
	t0 := time.Now()
	data, err := n.st.Read(id)
	n.done(t0, 1)
	return data, err
}

func (n *timedNetStore) Write(id uint64, data []byte) error {
	t0 := time.Now()
	err := n.st.Write(id, data)
	n.done(t0, 1)
	return err
}

func (n *timedNetStore) ReadBatch(ids []uint64) ([][]byte, error) {
	t0 := time.Now()
	out, err := n.st.ReadBatch(ids)
	n.done(t0, len(ids))
	return out, err
}

func (n *timedNetStore) WriteBatch(ids []uint64, blocks [][]byte) error {
	t0 := time.Now()
	err := n.st.WriteBatch(ids, blocks)
	n.done(t0, len(ids))
	return err
}

// Stats answers the handshake and stats frames with the geometry and the
// service counters (the client needs only Blocks and Shards).
func (n *timedNetStore) Stats() wire.Stats {
	ss := n.st.Stats()
	return wire.Stats{
		Blocks: n.blocks, Shards: 2, OwnedShards: 2,
		Reads: ss.Reads, Writes: ss.Writes, DedupHits: ss.DedupHits, Sheds: ss.Sheds,
	}
}
