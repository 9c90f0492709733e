// Package storeflag declares the store knobs of the command-line tools
// once: one table binds each flag straight to its palermo.ShardedStoreConfig
// field, and a JSON config file is parsed against the same flag set, so a
// knob is named in exactly one place for palermo-server and palermo-load.
package storeflag

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"palermo"
)

// knob is one store flag: its name, help text, and the field it sets.
type knob struct {
	name, usage string
	field       func(c *palermo.ShardedStoreConfig) any // *int, *uint64, *bool, *string or *time.Duration
}

// knobs is the table. The tools' defaults (4 shards, 2^18 blocks, seed 1)
// are set by Register; every other knob defaults to zero, which the store
// reads as its own default.
var knobs = []knob{
	{"shards", "independent ORAM shards", func(c *palermo.ShardedStoreConfig) any { return &c.Shards }},
	{"blocks", "store capacity in 64-byte blocks (0 = store default)", func(c *palermo.ShardedStoreConfig) any { return &c.Blocks }},
	{"seed", "base seed (shards, and palermo-load's client streams, derive from it)", func(c *palermo.ShardedStoreConfig) any { return &c.Seed }},
	{"queue", "per-shard queue depth (0 = default)", func(c *palermo.ShardedStoreConfig) any { return &c.QueueDepth }},
	{"pipeline", "per-shard pipeline depth (0 = default, 1 = serial workers)", func(c *palermo.ShardedStoreConfig) any { return &c.PipelineDepth }},
	{"treetop", "resident tree-top cache levels per engine space (0 = byte-budget default)", func(c *palermo.ShardedStoreConfig) any { return &c.TreeTopLevels }},
	{"prefetch", "enable the batch-admission prefetch planner (needs pipeline depth > 1)", func(c *palermo.ShardedStoreConfig) any { return &c.Prefetch }},
	{"prefetch-depth", "planner look-ahead in predicted batches (0/1 = one-batch planner; needs -prefetch)", func(c *palermo.ShardedStoreConfig) any { return &c.PrefetchDepth }},
	{"crypto-workers", "parallel seal/unseal workers per shard (0 = inline; needs pipeline depth > 1)", func(c *palermo.ShardedStoreConfig) any { return &c.CryptoWorkers }},
	{"admission", "overload-shedding admission deadline: queued requests older than this are dropped with a retry status (0 = never shed)", func(c *palermo.ShardedStoreConfig) any { return &c.AdmissionDeadline }},
	{"dir", "durable store directory (selects a durable engine; see -engine)", func(c *palermo.ShardedStoreConfig) any { return &c.Dir }},
	{"engine", `storage engine with -dir: "wal" or "blockfile" (default: the directory's recorded engine, "wal" for a new one)`, func(c *palermo.ShardedStoreConfig) any { return &c.Engine }},
	{"group-commit", "durable-log appends per fsync batch (0 = default)", func(c *palermo.ShardedStoreConfig) any { return &c.GroupCommit }},
	{"checkpoint-every", "writes between compaction checkpoints (0 = default, <0 disables)", func(c *palermo.ShardedStoreConfig) any { return &c.CheckpointEvery }},
	{"slot-cache", "blockfile slot read-cache budget in bytes per shard (0 = off; needs -engine blockfile)", func(c *palermo.ShardedStoreConfig) any { return &c.SlotCacheBytes }},
}

// Register binds every knob to its field of c on fs, after setting c to
// the tools' defaults.
func Register(fs *flag.FlagSet, c *palermo.ShardedStoreConfig) {
	*c = palermo.ShardedStoreConfig{Shards: 4, Blocks: 1 << 18, Seed: 1}
	for _, k := range knobs {
		switch p := k.field(c).(type) {
		case *int:
			fs.IntVar(p, k.name, *p, k.usage)
		case *uint64:
			fs.Uint64Var(p, k.name, *p, k.usage)
		case *bool:
			fs.BoolVar(p, k.name, *p, k.usage)
		case *string:
			fs.StringVar(p, k.name, *p, k.usage)
		case *time.Duration:
			fs.DurationVar(p, k.name, *p, k.usage)
		default:
			panic(fmt.Sprintf("storeflag: knob %s binds unsupported %T", k.name, p))
		}
	}
}

// InProcess reports whether name is a knob that only configures an
// in-process store: every knob except the seed, which also seeds
// palermo-load's client streams.
func InProcess(name string) bool {
	for _, k := range knobs {
		if k.name == name {
			return name != "seed"
		}
	}
	return false
}

// LoadFile sets fs's flags from the JSON object in the file at path. Each
// key names a flag, with '-' written as '_'; a value is a JSON string,
// number or boolean and sets its flag exactly as the command line would
// (a number for a duration flag counts nanoseconds). Unknown keys are
// rejected, so a typo fails loudly instead of silently defaulting, and a
// flag already set on the command line keeps its value. Flags the file
// sets count as set for flag.Visit.
func LoadFile(fs *flag.FlagSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return fmt.Errorf("config %s: %w", path, err)
	}
	onCommandLine := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { onCommandLine[f.Name] = true })
	for key, raw := range keys {
		name := strings.ReplaceAll(key, "_", "-")
		f := fs.Lookup(name)
		if f == nil || strings.Contains(key, "-") {
			return fmt.Errorf("config %s: unknown key %q", path, key)
		}
		if onCommandLine[name] {
			continue
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("config %s: key %q: %w", path, key, err)
		}
		var s string
		switch v := v.(type) {
		case string:
			s = v
		case bool:
			s = fmt.Sprint(v)
		case float64:
			s = string(raw)
			if g, ok := f.Value.(flag.Getter); ok {
				if _, ok := g.Get().(time.Duration); ok {
					s += "ns"
				}
			}
		default:
			return fmt.Errorf("config %s: key %q: want a string, number or boolean", path, key)
		}
		if err := fs.Set(name, s); err != nil {
			return fmt.Errorf("config %s: key %q: %w", path, key, err)
		}
	}
	return nil
}

// Resolve finishes a parsed configuration. A durable directory without an
// engine takes the engine its manifest records, so reopening never needs
// the flag restated (a new directory gets the WAL engine). With
// fromManifest, the store serves a cluster placement that owns the
// geometry: the -blocks and -shards defaults give way to it, while values
// set explicitly (on the command line or in the file) stay and must agree
// with it.
func Resolve(fs *flag.FlagSet, c *palermo.ShardedStoreConfig, fromManifest bool) {
	if c.Dir != "" && c.Engine == "" {
		c.Engine = palermo.DetectEngine(c.Dir)
	}
	if fromManifest {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["blocks"] {
			c.Blocks = 0
		}
		if !set["shards"] {
			c.Shards = 0
		}
	}
}
