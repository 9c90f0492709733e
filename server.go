package palermo

// Server exposes a ShardedStore over TCP speaking the palermo wire
// protocol, so remote clients (palermo.Client, cmd/palermo-load -addr)
// drive the same sharded service path an in-process caller does.
//
//	st, _ := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 18, Shards: 4})
//	srv, _ := palermo.NewServer(st, palermo.ServerConfig{})
//	go srv.ListenAndServe("127.0.0.1:7070")
//	...
//	srv.Close() // graceful: drains in-flight requests, then
//	st.Close()  // checkpoint + release the store
//
// The heavy lifting lives in internal/netserve (per-connection
// reader/writer goroutines, pipelining, bounded in-flight windows,
// graceful drain); this wrapper adapts the store and validates limits.
// DESIGN.md §8 describes the wire format and why the network layer
// observes only the §VI adversary's view.

import (
	"fmt"
	"net"
	"time"

	"palermo/internal/netserve"
	"palermo/internal/wire"
)

// The wire protocol's block granularity is pinned to the store's; this
// fails to compile if they ever drift.
var _ [0]struct{} = [wire.BlockBytes - BlockSize]struct{}{}

// ErrServerClosed is returned by Server.Serve/ListenAndServe after Close.
var ErrServerClosed = netserve.ErrServerClosed

// ServerConfig tunes the network serving layer. The zero value uses the
// defaults.
type ServerConfig struct {
	// MaxInFlight bounds each connection's outstanding requests. When the
	// window is full the server stops reading that connection, so TCP flow
	// control pushes back on the client — the socket extension of the
	// shard queues' back-pressure. Default 64.
	MaxInFlight int
	// MaxBatch caps the operations one batch frame may carry; larger
	// batches are rejected with a typed error, not served. Default 4096.
	MaxBatch int
	// IdleTimeout closes connections that send nothing for this long
	// (0 = never).
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write so a stalled client cannot
	// wedge a connection (default 30s).
	WriteTimeout time.Duration
}

// Server serves one ShardedStore over TCP. Closing the Server does not
// close the store: drain the server first, then close the store.
type Server struct {
	ns *netserve.Server
}

// NewServer validates cfg and builds a server over st. The store must
// outlive the server; requests arriving while the store is closing are
// answered with a typed closed status that clients map to ErrClosed.
func NewServer(st *ShardedStore, cfg ServerConfig) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("palermo: NewServer requires a store")
	}
	return newServer(netStore{st}, cfg)
}

// newServer builds the network layer over st, a standalone store or a
// cluster node.
func newServer(st netserve.Store, cfg ServerConfig) (*Server, error) {
	ns, err := netserve.New(st, netserve.Config{
		MaxInFlight:  cfg.MaxInFlight,
		MaxBatch:     cfg.MaxBatch,
		IdleTimeout:  cfg.IdleTimeout,
		WriteTimeout: cfg.WriteTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("palermo: %w", err)
	}
	return &Server{ns: ns}, nil
}

// Serve accepts connections on ln until Close, then returns
// ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error { return s.ns.Serve(ln) }

// ListenAndServe listens on the TCP address and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("palermo: %w", err)
	}
	return s.ns.Serve(ln)
}

// Addr returns the serving address once Serve/ListenAndServe has bound a
// listener (nil before).
func (s *Server) Addr() net.Addr { return s.ns.Addr() }

// Close gracefully shuts the server down: stop accepting, let every
// in-flight request complete and its response flush, then close all
// connections. Idempotent.
func (s *Server) Close() error { return s.ns.Close() }

// netStore is the netserve.Store a Server serves: the store's own
// request methods, with Stats answered by the wire snapshot.
type netStore struct{ *ShardedStore }

func (a netStore) Stats() wire.Stats { return a.wireStats() }

// wireStats folds the service stats, the engine traffic, and the store's
// geometry and placement into the single snapshot the wire Stats op
// returns. A standalone store owns every shard at epoch 0; a cluster
// node reports its manifest epoch and owned range.
func (s *ShardedStore) wireStats() wire.Stats {
	s.mu.RLock()
	owned := s.ownedLocked()
	var epoch uint64
	if s.node != nil {
		epoch = s.node.man.Epoch
	}
	s.mu.RUnlock()
	first := 0
	if len(owned) > 0 {
		first = owned[0].i
	}
	ss := s.Stats()
	tr := s.Traffic()
	return wire.Stats{
		Blocks:      s.Blocks(),
		Shards:      uint32(s.Shards()),
		Reads:       ss.Reads,
		Writes:      ss.Writes,
		DedupHits:   ss.DedupHits,
		Sheds:       ss.Sheds,
		ReadLat:     toWireLatency(ss.ReadLat),
		WriteLat:    toWireLatency(ss.WriteLat),
		QueueLat:    toWireLatency(ss.QueueLat),
		ExecLat:     toWireLatency(ss.ExecLat),
		EngineReads: tr.Reads, EngineWrites: tr.Writes,
		DRAMReads: tr.DRAMReads, DRAMWrites: tr.DRAMWrites,
		StashPeak:      uint32(tr.StashPeak),
		TreeTopHits:    tr.TreeTopHits,
		PrefetchIssued: tr.PrefetchIssued, PrefetchUsed: tr.PrefetchUsed, PrefetchStale: tr.PrefetchStale,
		Epoch: epoch, FirstShard: uint32(first), OwnedShards: uint32(len(owned)),
	}
}

func toWireLatency(l LatencySummary) wire.Latency {
	return wire.Latency{N: l.N, MeanUs: l.MeanUs, P50Us: l.P50Us, P99Us: l.P99Us}
}
