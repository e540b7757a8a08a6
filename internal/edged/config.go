// Package edged is the semantic edge daemon behind cmd/edged: the typed
// configuration surface, the request server, and the daemon lifecycle
// (boot, listen, serve, shut down). cmd/edged is a thin flag-parsing
// shell around this package, and tests drive the same code paths the
// binary runs.
//
// There is one deployment: every daemon is a member of an edge mesh (see
// internal/mesh). -peers ... -mesh-index i makes it member i of that
// list; without -peers it is node-0 of a mesh of one, whose only address
// is -addr. Members cooperate over the rpc protocol's mesh ops, and a
// lone daemon simply has no peer to cooperate with.
package edged

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/rpc"
)

// ConfigError is the typed validation error: it names the offending
// field (by its flag name), the rejected value and the reason, so
// callers can switch on Field instead of parsing message strings.
type ConfigError struct {
	Field  string
	Value  interface{}
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("edged: invalid -%s %v: %s", e.Field, e.Value, e.Reason)
}

// Config is the daemon configuration. The zero value is not runnable;
// start from FromFlags (which carries the documented defaults) and
// adjust.
type Config struct {
	// Addr is the TCP listen address.
	Addr string
	// Selector names the model-selection policy.
	Selector string
	// SNRdB is the channel signal-to-noise ratio: finite and not exactly 0.
	SNRdB float64
	// Seed is the deterministic system seed (and the mesh ring seed).
	Seed uint64
	// KBDir loads pretrained .kbm models instead of pretraining at boot.
	KBDir string
	// PprofAddr exposes net/http/pprof when non-empty.
	PprofAddr string
	// ProfileContention additionally enables mutex and block profiling
	// (runtime.SetMutexProfileFraction / SetBlockProfileRate) so the
	// pprof endpoint can attribute lock contention on the serve path.
	// Requires PprofAddr; the profiles have measurable overhead, so the
	// flag is opt-in.
	ProfileContention bool
	// MaxInflight caps concurrently served transmits; 0 = 2x GOMAXPROCS,
	// negative = unlimited.
	MaxInflight int
	// IdleTimeout drops connections idle longer than this; 0 disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; 0 disables.
	WriteTimeout time.Duration
	// ShedAfter sheds transmits queued at the admission gate longer than
	// this; 0 = only shed on client deadline hints.
	ShedAfter time.Duration
	// BufferThreshold is the per-(domain,user) transaction count that
	// triggers an individual-model update; 0 = core default.
	BufferThreshold int

	// Peers is the full static mesh member list, comma-separated
	// host:port in ring-index order, this process included. Empty means
	// a mesh of one: this daemon alone, at Addr.
	Peers string
	// MeshIndex is this process's position in Peers.
	MeshIndex int
	// ProbeInterval is the mesh liveness-probe period.
	ProbeInterval time.Duration
	// DrainTimeout bounds the graceful drain a SIGTERM triggers: once it
	// expires the daemon falls back to crash-stop. 0 selects 30s.
	DrainTimeout time.Duration
	// Replicas keeps that many mesh ring-successors warm for hot general
	// models (proactive replica pushes); 0 disables replication.
	Replicas int
}

// FromFlags registers every daemon flag on fs with its documented
// default and returns the Config they populate; read it after
// fs.Parse.
func FromFlags(fs *flag.FlagSet) *Config {
	cfg := &Config{}
	fs.StringVar(&cfg.Addr, "addr", ":7060", "listen address")
	fs.StringVar(&cfg.Selector, "selector", "sticky", "model-selection policy ("+strings.Join(core.SelectorNames(), "|")+")")
	fs.Float64Var(&cfg.SNRdB, "snr", 12, "channel SNR in dB (finite; not exactly 0, which reads as the default)")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "deterministic seed")
	fs.StringVar(&cfg.KBDir, "kb", "", "directory of pretrained .kbm models (see cmd/semkb); empty pretrains at startup")
	fs.StringVar(&cfg.PprofAddr, "pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060); empty disables")
	fs.BoolVar(&cfg.ProfileContention, "profile-contention", false, "also record mutex and block profiles on the -pprof endpoint (has overhead; requires -pprof)")
	fs.IntVar(&cfg.MaxInflight, "max-inflight", 0, "max concurrently served transmits (0 = 2x GOMAXPROCS, <0 = unlimited)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 5*time.Minute, "per-connection read deadline; 0 disables")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 30*time.Second, "per-response write deadline; 0 disables")
	fs.DurationVar(&cfg.ShedAfter, "shed-after", 0, "shed transmits queued at the -max-inflight gate longer than this; 0 = only shed on client deadlines")
	fs.IntVar(&cfg.BufferThreshold, "buffer-threshold", 0, "transactions per (domain,user) before an individual-model update fires (0 = default)")
	fs.StringVar(&cfg.Peers, "peers", "", "full mesh member list, comma-separated host:port in ring-index order (this process included); empty = a mesh of one at -addr")
	fs.IntVar(&cfg.MeshIndex, "mesh-index", 0, "this process's position in -peers")
	fs.DurationVar(&cfg.ProbeInterval, "probe-interval", time.Second, "mesh liveness-probe period")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM before falling back to crash-stop")
	fs.IntVar(&cfg.Replicas, "replicas", 0, "keep this many ring-successors warm for hot general models (0 disables replication)")
	return cfg
}

// MeshMembers is the static membership, self included, in ring-index
// order: -peers through mesh.ParseMembers, or this daemon alone at -addr
// when no list was given. Call Validate first; an invalid list yields nil.
func (c *Config) MeshMembers() []rpc.PeerInfo {
	members, _ := c.members()
	return members
}

func (c *Config) members() ([]rpc.PeerInfo, error) {
	if c.Peers == "" {
		return []rpc.PeerInfo{{Name: "node-0", Addr: c.Addr}}, nil
	}
	return mesh.ParseMembers(c.Peers)
}

// Validate checks every field, returning a *ConfigError naming the
// first offending flag.
func (c *Config) Validate() error {
	if c.Addr == "" {
		return &ConfigError{Field: "addr", Value: c.Addr, Reason: "listen address required"}
	}
	// The daemon accepts exactly the policies core says one can serve:
	// not oracle (it needs a driver that knows each message's true
	// domain, which no wire request carries), not static (no flag names
	// its domain), not the qlearn / ucb experiment rows.
	if selectors := core.SelectorNames(); !slices.Contains(selectors, c.Selector) {
		return &ConfigError{Field: "selector", Value: c.Selector, Reason: "unknown policy, want one of " + strings.Join(selectors, "|")}
	}
	// The daemon serves the SNR on its command line or does not boot: a
	// non-finite value would make the noise sigma not a number, and core
	// reads a zero SNRdB as "use the default".
	if math.IsNaN(c.SNRdB) || math.IsInf(c.SNRdB, 0) {
		return &ConfigError{Field: "snr", Value: c.SNRdB, Reason: "must be a finite number of dB"}
	}
	if c.SNRdB == 0 {
		return &ConfigError{Field: "snr", Value: c.SNRdB, Reason: "exactly 0 dB cannot be asked for (the system reads a zero SNR as its 12 dB default); pass a value just off zero, such as 0.01"}
	}
	if c.ProfileContention && c.PprofAddr == "" {
		return &ConfigError{Field: "profile-contention", Value: c.ProfileContention, Reason: "contention profiles are served over -pprof, which is not set"}
	}
	for _, d := range []struct {
		field string
		v     time.Duration
	}{
		{"idle-timeout", c.IdleTimeout},
		{"write-timeout", c.WriteTimeout},
		{"shed-after", c.ShedAfter},
		{"probe-interval", c.ProbeInterval},
		{"drain-timeout", c.DrainTimeout},
	} {
		if d.v < 0 {
			return &ConfigError{Field: d.field, Value: d.v, Reason: "must be >= 0"}
		}
	}
	if c.BufferThreshold < 0 {
		return &ConfigError{Field: "buffer-threshold", Value: c.BufferThreshold, Reason: "must be >= 0"}
	}
	members, err := c.members()
	if err != nil {
		return &ConfigError{Field: "peers", Value: c.Peers, Reason: err.Error()}
	}
	if c.MeshIndex < 0 || c.MeshIndex >= len(members) {
		return &ConfigError{Field: "mesh-index", Value: c.MeshIndex, Reason: fmt.Sprintf("must be in [0,%d)", len(members))}
	}
	if c.Replicas < 0 || c.Replicas >= len(members) {
		return &ConfigError{Field: "replicas", Value: c.Replicas, Reason: fmt.Sprintf("must be in [0,%d): a member has that many ring-successors", len(members))}
	}
	if c.ProbeInterval == 0 {
		return &ConfigError{Field: "probe-interval", Value: c.ProbeInterval, Reason: "a member needs a liveness-probe period"}
	}
	return nil
}
