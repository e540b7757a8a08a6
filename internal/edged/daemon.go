package edged

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers for PprofAddr
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
)

// loadKB loads one pretrained codec per corpus domain from dir (files
// written by cmd/semkb), in domain order.
func loadKB(dir string) ([]*semantic.Codec, error) {
	corp := corpus.Build()
	out := make([]*semantic.Codec, len(corp.Domains))
	for i, d := range corp.Domains {
		path := filepath.Join(dir, d.Name+".kbm")
		stream, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("edged: %w (run `semkb -pretrain -out %s` first)", err, dir)
		}
		codec, err := semantic.ParseCodec(stream, corp)
		if err != nil {
			return nil, fmt.Errorf("edged: %s: %w", path, err)
		}
		if codec.Domain().Name != d.Name {
			return nil, fmt.Errorf("edged: %s holds domain %q, want %q", path, codec.Domain().Name, d.Name)
		}
		out[i] = codec
	}
	return out, nil
}

// Daemon is one booted edged instance: the serving system, its mesh
// membership, and the request server, ready to Listen and Serve (or to
// be served by StartCluster).
type Daemon struct {
	Cfg  Config
	Sys  *core.System
	Mesh *mesh.Node

	srv      *server
	ln       net.Listener
	draining atomic.Bool
}

// New validates cfg and boots the daemon: models pretrained or loaded,
// mesh member built (node-0 of one without -peers), caches warmed (only
// member 0 warms its sender — the others fill cooperatively, which is the
// behavior the mesh exists to show). It does not listen yet.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PprofAddr != "" {
		if cfg.ProfileContention {
			// Opt-in contention observability: sample every mutex hold
			// and every blocking event so /debug/pprof/mutex and
			// /debug/pprof/block show where serve-path goroutines wait.
			// This is how the shared channel lock was measured before
			// the seeded lock-free crossing replaced it.
			runtime.SetMutexProfileFraction(1)
			runtime.SetBlockProfileRate(1)
		}
		// The pprof mux registers on http.DefaultServeMux via the blank
		// import; serving it on a side port lets `go tool pprof` attach to
		// a live daemon and profile serving hotspots under real load.
		go func() {
			log.Printf("edged: pprof on http://%s/debug/pprof/", cfg.PprofAddr)
			if err := http.ListenAndServe(cfg.PprofAddr, nil); err != nil {
				log.Printf("edged: pprof server: %v", err)
			}
		}()
	}

	selector, _ := core.SelectorByName(cfg.Selector) // Validate checked the name
	coreCfg := core.Config{
		Selector:        selector,
		SNRdB:           cfg.SNRdB,
		PinGeneral:      true,
		Seed:            cfg.Seed,
		BufferThreshold: cfg.BufferThreshold,
	}
	start := time.Now()
	if cfg.KBDir != "" {
		log.Printf("edged: loading pretrained models from %s...", cfg.KBDir)
		pretrained, err := loadKB(cfg.KBDir)
		if err != nil {
			return nil, err
		}
		coreCfg.Pretrained = pretrained
	} else {
		log.Printf("edged: pretraining general models (selector=%s, snr=%.1f dB)...", cfg.Selector, cfg.SNRdB)
	}
	members := cfg.MeshMembers()
	d, err := NewMember(mesh.Config{
		Self:          members[cfg.MeshIndex],
		Peers:         slices.Delete(slices.Clone(members), cfg.MeshIndex, cfg.MeshIndex+1),
		RingSeed:      cfg.Seed,
		ProbeInterval: cfg.ProbeInterval,
		Replicas:      cfg.Replicas,
		Logf:          log.Printf,
	}, coreCfg)
	if err != nil {
		return nil, err
	}
	sys, node := d.Sys, d.Mesh
	// Coordinated eviction: a member must not evict the mesh's last copy
	// of a general model.
	sys.Sender.Cache().SetEvictionGuard(node.EvictionGuard)
	// A mesh warms only member 0's sender: the other members pull models
	// cooperatively from their neighbors on first miss, which is exactly
	// the behavior the mesh exists to show.
	if node.Self().Index == 0 {
		if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
			return nil, err
		}
	}
	if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	log.Printf("edged: member %s (%d/%d) ready in %v (domains: %v)", node.Self().Name, node.Self().Index, node.Total(),
		time.Since(start).Round(time.Millisecond), sys.Corpus.Names())

	d.Cfg = cfg
	d.srv.gate = newGate(cfg.MaxInflight)
	d.srv.idleTimeout = cfg.IdleTimeout
	d.srv.writeTimeout = cfg.WriteTimeout
	d.srv.shedAfter = cfg.ShedAfter
	return d, nil
}

// NewMember builds one complete mesh member and the request server in
// front of it: the node, and its serving system wired the way every
// member must be (a single sender named after the ring slot, the node as
// its miss resolver, the node bound back to the system with the cloud
// origin as its fallback), behind the server's defaults: a 2x GOMAXPROCS
// admission gate and no deadlines. sysCfg supplies everything else. It
// warms no cache, installs no eviction guard and starts no membership
// (Mesh.Start), which is what an in-process mesh needs to stay a
// deterministic function of its inputs. Its Cfg stays zero: only New has
// flags to record.
func NewMember(cfg mesh.Config, sysCfg core.Config) (*Daemon, error) {
	node, err := mesh.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	sysCfg.SenderName = cfg.Self.Name
	sysCfg.SenderFetcher = node
	sys, err := core.NewSystem(sysCfg)
	if err != nil {
		return nil, err
	}
	node.Bind(sys)
	return &Daemon{Sys: sys, Mesh: node, srv: newServer(sys, node)}, nil
}

// Listen binds the daemon's listener: TCP, or the in-memory transport
// when Cfg.Addr is a mem: address (rpc.Listen).
func (d *Daemon) Listen() error {
	ln, err := rpc.Listen(d.Cfg.Addr)
	if err != nil {
		return err
	}
	d.ln = ln
	log.Printf("edged: listening on %s", ln.Addr())
	return nil
}

// Serve runs the accept loop on the listener Listen bound (or StartCluster
// handed over) until Close or an accept error, and drains in-flight
// handlers before returning. It does not start the membership: a daemon
// joins its peers and probes them only once its owner calls Mesh.Start.
func (d *Daemon) Serve() error {
	err := d.srv.serve(d.ln)
	d.Mesh.Stop()
	return err
}

// Close stops the daemon gracefully: the mesh membership announces its
// departure, the listener stops accepting, and idle connections close
// so Serve can drain the busy ones and return. Safe to call more than
// once.
func (d *Daemon) Close() {
	d.Mesh.Stop()
	if d.ln != nil {
		d.ln.Close()
	}
	d.srv.closeIdleConns()
}

// Drain removes the daemon from service gracefully: new transmits and
// moves park at the drain gate, in-flight ones finish, and the mesh
// membership hands every owned model and user record to the new
// consistent-hash owners before announcing departure (see mesh.Drain).
// Parked requests are answered with Draining only after the handoff
// completes, so a client that retries at the new owner finds its state
// already there. The whole drain is bounded by -drain-timeout; on
// expiry (or a handoff error) the daemon falls back to crash-stop
// semantics for whatever is left. Repeated calls are no-ops.
func (d *Daemon) Drain() error {
	if !d.draining.CompareAndSwap(false, true) {
		return nil
	}
	budget := d.Cfg.DrainTimeout
	if budget <= 0 {
		budget = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	// finishDrain must run on every path: it releases the handlers parked
	// at the drain gate, without which Serve's handler drain never ends.
	defer d.srv.finishDrain()
	d.srv.beginDrain()
	err := d.srv.awaitIdle(ctx)
	if err == nil {
		err = d.Mesh.Drain(ctx)
	}
	if err != nil {
		log.Printf("edged: drain: %v; falling back to crash-stop", err)
		d.Kill()
		return err
	}
	log.Printf("edged: drain complete")
	d.Close()
	return nil
}

// Kill emulates a process death: the mesh membership is aborted without
// announcing departure (peers must discover the loss through their
// liveness probes, exactly as with a real SIGKILL), the listener closes
// and every open connection is severed mid-stream.
func (d *Daemon) Kill() {
	d.Mesh.Abort()
	d.Close()
	d.srv.killConns()
}
