package main

import (
	"flag"
	"testing"

	"palermo"
	"palermo/internal/storeflag"
)

// TestRemoteRefusesStoreFlags: with -addr the store belongs to the
// server, so every store knob of the shared table that configures an
// in-process store is refused — none may be silently ignored. The seed
// stays accepted: it also seeds the client streams.
func TestRemoteRefusesStoreFlags(t *testing.T) {
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	var cfg palermo.ShardedStoreConfig
	storeflag.Register(fs, &cfg)
	refused := 0
	fs.VisitAll(func(f *flag.Flag) {
		if !storeflag.InProcess(f.Name) {
			return
		}
		refused++
		if _, err := parseFlags([]string{"-addr", "127.0.0.1:1", "-" + f.Name + "=" + f.DefValue}); err == nil {
			t.Errorf("-%s accepted with -addr", f.Name)
		}
		if _, err := parseFlags([]string{"-" + f.Name + "=" + f.DefValue}); err != nil {
			t.Errorf("-%s refused in-process: %v", f.Name, err)
		}
	})
	if refused < 14 {
		t.Fatalf("only %d store flags checked", refused)
	}
	if _, err := parseFlags([]string{"-addr", "127.0.0.1:1", "-pipeline", "4"}); err == nil {
		t.Fatal("-pipeline accepted with -addr")
	}
	o, err := parseFlags([]string{"-addr", "127.0.0.1:1", "-seed", "9"})
	if err != nil {
		t.Fatalf("-seed refused with -addr: %v", err)
	}
	if o.store.Seed != 9 {
		t.Fatalf("seed = %d, want 9", o.store.Seed)
	}
}
