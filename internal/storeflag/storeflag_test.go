package storeflag

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"palermo"
)

// serverFlags mirrors palermo-server's flag set: the shared store knobs
// plus the server's own flags, which the config file may set too.
type serverFlags struct {
	fs       *flag.FlagSet
	store    palermo.ShardedStoreConfig
	addr     *string
	idle     *time.Duration
	manifest *string
}

func newServerFlags() *serverFlags {
	f := &serverFlags{fs: flag.NewFlagSet("palermo-server", flag.ContinueOnError)}
	Register(f.fs, &f.store)
	f.addr = f.fs.String("addr", "127.0.0.1:7070", "")
	f.idle = f.fs.Duration("idle", 2*time.Minute, "")
	f.manifest = f.fs.String("manifest", "", "")
	return f
}

// load parses args, then the config file body through LoadFile.
func (f *serverFlags) load(t *testing.T, body string, args ...string) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "server.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := f.fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return LoadFile(f.fs, path)
}

func TestServerConfigLoad(t *testing.T) {
	body := `{
  "addr": "127.0.0.1:7071",
  "shards": 4,
  "blocks": 4096,
  "dir": "/tmp/x",
  "idle": "2m",
  "manifest": "manifest.json"
}`
	f := newServerFlags()
	if err := f.load(t, body); err != nil {
		t.Fatal(err)
	}
	if *f.addr != "127.0.0.1:7071" || f.store.Shards != 4 || f.store.Blocks != 4096 || f.store.Dir != "/tmp/x" || *f.manifest != "manifest.json" {
		t.Fatalf("config parsed wrong: addr %q, store %+v, manifest %q", *f.addr, f.store, *f.manifest)
	}
	if *f.idle != 2*time.Minute {
		t.Fatalf("idle = %v", *f.idle)
	}

	// A flag given on the command line beats its file value; the others
	// still come from the file.
	f = newServerFlags()
	if err := f.load(t, body, "-shards", "2", "-addr", ":7072"); err != nil {
		t.Fatal(err)
	}
	if f.store.Shards != 2 || *f.addr != ":7072" || f.store.Blocks != 4096 {
		t.Fatalf("command line did not override the file: addr %q, store %+v", *f.addr, f.store)
	}

	// Every key names a flag with '_' for '-'; numbers and booleans set
	// flags as their command-line text would, and a number for a duration
	// counts nanoseconds.
	f = newServerFlags()
	if err := f.load(t, `{"group_commit": 16, "prefetch": true, "prefetch_depth": 4, "admission": 5000000, "engine": "blockfile", "slot_cache": 4096}`); err != nil {
		t.Fatal(err)
	}
	want := palermo.ShardedStoreConfig{
		Shards: 4, Blocks: 1 << 18, Seed: 1, GroupCommit: 16, Prefetch: true, PrefetchDepth: 4,
		AdmissionDeadline: 5 * time.Millisecond, Engine: palermo.BackendBlockfile, SlotCacheBytes: 4096,
	}
	if !reflect.DeepEqual(f.store, want) {
		t.Fatalf("config parsed wrong: %+v, want %+v", f.store, want)
	}

	for _, bad := range []string{
		`{"addrs": "typo"}`,         // unknown key
		`{"posmap_prefetch": true}`, // a removed knob
		`{"group-commit": 16}`,      // keys spell '-' as '_'
		`{"shards": "four"}`,        // the flag refuses the value
		`{"shards": null}`,          // not a string, number or boolean
		`["shards", 4]`,             // not an object
	} {
		if err := newServerFlags().load(t, bad); err == nil {
			t.Errorf("config %s accepted", bad)
		}
	}
}

// TestResolve: a durable directory without an engine takes its recorded
// one, and in cluster mode only explicitly set geometry survives.
func TestResolve(t *testing.T) {
	dir := t.TempDir()
	st, err := palermo.NewShardedStore(palermo.ShardedStoreConfig{Blocks: 1 << 10, Shards: 2, Engine: palermo.BackendBlockfile, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f := newServerFlags()
	if err := f.load(t, `{"shards": 2}`, "-dir", dir); err != nil {
		t.Fatal(err)
	}
	Resolve(f.fs, &f.store, true)
	if f.store.Engine != palermo.BackendBlockfile {
		t.Fatalf("engine = %q, want the directory's %q", f.store.Engine, palermo.BackendBlockfile)
	}
	if f.store.Shards != 2 || f.store.Blocks != 0 {
		t.Fatalf("cluster geometry: %d shards, %d blocks; want the file's 2 and the manifest's (0)", f.store.Shards, f.store.Blocks)
	}
	f = newServerFlags()
	if err := f.load(t, `{}`, "-dir", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	Resolve(f.fs, &f.store, false)
	if f.store.Engine != palermo.BackendWAL || f.store.Blocks != 1<<18 {
		t.Fatalf("fresh dir: engine %q, %d blocks; want %q and the flag default", f.store.Engine, f.store.Blocks, palermo.BackendWAL)
	}
}
