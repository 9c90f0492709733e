// Command palermo-server serves a sharded oblivious store over TCP: the
// wire-protocol front end that turns the in-process ShardedStore into a
// network service palermo.Client (and palermo-load -addr) can drive.
//
// Usage:
//
//	palermo-server                                  # 4 shards, 2^18 blocks on 127.0.0.1:7070
//	palermo-server -addr :7070 -shards 8            # public listener, 8 shards
//	palermo-server -dir /data/palermo               # durable store under -dir (WAL engine unless -engine)
//	palermo-server -max-inflight 128 -idle 5m       # per-conn window + idle reaping
//	palermo-server -pipeline 4 -treetop 6 -prefetch # serving-path optimizations (§10)
//	palermo-server -admission 50ms                  # shed queued requests older than 50ms (retry status)
//	palermo-server -metrics 127.0.0.1:9090 -pprof   # plain-text /metrics + pprof operability listener
//	palermo-server -config node.json                # flags from a reviewed JSON file
//	palermo-server -manifest cluster.json -addr ... # cluster node: serve owned shards only
//
// -config sets flags from a JSON object whose keys are the flag names
// with '-' written as '_' ({"shards": 8, "group_commit": 16, "idle":
// "5m"}); unknown keys are rejected, and a flag given on the command line
// overrides its file value, so `-config node.json -addr :7071` reuses one
// file across nodes. The store flags are declared once, in
// internal/storeflag, and shared with palermo-load.
//
// -manifest selects cluster mode: the node loads the placement manifest
// (palermo-ctl init writes one), serves only the contiguous shard ranges
// the manifest assigns to -addr, answers manifest fetches, and accepts
// live shard migrations. Requests for shards it does not own are rejected
// with a wrong-epoch status so stale clients refetch and re-route.
//
// The server prints one "listening on" line once the socket is bound (CI
// and scripts wait for it), then serves until SIGINT/SIGTERM. Shutdown is
// graceful and ordered: the network layer drains first (in-flight
// requests complete and their responses flush), then the store closes —
// with -dir that final close checkpoints every shard, so a clean stop is
// always recoverable with `palermo-load -dir ... -verify`.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"palermo"
	"palermo/internal/cluster"
	"palermo/internal/storeflag"
)

func main() {
	var storeCfg palermo.ShardedStoreConfig
	storeflag.Register(flag.CommandLine, &storeCfg)
	addr := flag.String("addr", "127.0.0.1:7070", "TCP listen address")
	maxInFlight := flag.Int("max-inflight", 0, "per-connection in-flight request window (0 = default 64)")
	maxBatch := flag.Int("max-batch", 0, "largest accepted batch frame in ops (0 = default 4096)")
	idle := flag.Duration("idle", 2*time.Minute, "close connections idle for this long (0 = never)")
	metricsAddr := flag.String("metrics", "", "operability listener address serving plain-text /metrics (empty = off)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the -metrics listener (keep it private)")
	configPath := flag.String("config", "", "JSON config file; flags given on the command line override its values")
	manifest := flag.String("manifest", "", "placement manifest path (selects cluster mode)")
	flag.Parse()
	if *configPath != "" {
		if err := storeflag.LoadFile(flag.CommandLine, *configPath); err != nil {
			fatal(err)
		}
	}
	storeflag.Resolve(flag.CommandLine, &storeCfg, *manifest != "")

	srvCfg := palermo.ServerConfig{
		MaxInFlight: *maxInFlight,
		MaxBatch:    *maxBatch,
		IdleTimeout: *idle,
	}
	durability := "in-memory"
	if storeCfg.Dir != "" {
		durability = fmt.Sprintf("durable in %s (%s engine)", storeCfg.Dir, storeCfg.Engine)
	}

	st, srv, desc, err := open(*manifest, *addr, storeCfg, srvCfg)
	if err != nil {
		fatal(err)
	}
	startMetrics(*metricsAddr, palermo.MetricsVars{
		Service:     st.Stats,
		Traffic:     st.Traffic,
		QueueDepths: st.QueueDepths,
		FsyncLag:    st.FsyncLag,
	}, *pprofOn)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		st.Close()
		fatal(err)
	}
	fmt.Printf("palermo-server: listening on %s (%s, %s)\n", ln.Addr(), desc, durability)
	serveLoop(ln, srv, st)
}

// open builds the store — a cluster node when manifestPath is set — and
// the server in front of it, and describes them for the listening line.
// A cluster node serves only the shards the manifest assigns to addr,
// answers manifest fetches, and accepts live shard migrations.
// Either way the store is a *palermo.ShardedStore: a node embeds one.
func open(manifestPath, addr string, storeCfg palermo.ShardedStoreConfig, srvCfg palermo.ServerConfig) (*palermo.ShardedStore, *palermo.Server, string, error) {
	if manifestPath == "" {
		st, err := palermo.NewShardedStore(storeCfg)
		if err != nil {
			return nil, nil, "", err
		}
		srv, err := palermo.NewServer(st, srvCfg)
		if err != nil {
			st.Close()
			return nil, nil, "", err
		}
		return st, srv, fmt.Sprintf("%d shards, %d blocks", st.Shards(), st.Blocks()), nil
	}
	man, err := cluster.Load(manifestPath)
	if err != nil {
		return nil, nil, "", err
	}
	node, err := palermo.NewClusterNode(palermo.ClusterNodeConfig{Addr: addr, Store: storeCfg}, man)
	if err != nil {
		return nil, nil, "", err
	}
	srv, err := palermo.NewClusterServer(node, srvCfg)
	if err != nil {
		node.Close()
		return nil, nil, "", err
	}
	return node.ShardedStore, srv, fmt.Sprintf("cluster node %s, epoch %d, owns shards %v of %d, %d blocks",
		node.Addr(), node.Epoch(), node.OwnedShards(), node.Shards(), node.Blocks()), nil
}

// startMetrics binds the operability listener when -metrics is set. The
// listener lives for the whole process: scrapes race shutdown at worst,
// and every source it reads stays safe to call after Close.
func startMetrics(addr string, vars palermo.MetricsVars, pprofOn bool) {
	if addr == "" {
		return
	}
	ms, err := palermo.ServeMetrics(addr, vars, pprofOn)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("palermo-server: metrics on http://%s/metrics\n", ms.Addr())
}

// serveLoop serves until a signal, then drains the network layer before
// closing the store so every accepted request completes against an open
// store.
func serveLoop(ln net.Listener, srv *palermo.Server, st *palermo.ShardedStore) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case sig := <-sigc:
		fmt.Printf("palermo-server: %v — draining\n", sig)
	case err := <-serveErr:
		st.Close()
		fatal(err)
	}
	if err := srv.Close(); err != nil {
		st.Close()
		fatal(err)
	}
	ss := st.Stats()
	if err := st.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("palermo-server: stopped (%d reads, %d writes served)\n", ss.Reads, ss.Writes)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "palermo-server:", err)
	os.Exit(1)
}
