// Package mesh turns independent edge members into one cooperative edge
// cluster — the paper's multi-edge picture (users hashed to an edge,
// handover of individual models, cooperative fetch before the cloud) and
// the repository's only implementation of it.
//
// Each member runs a single-sender core.System plus a mesh.Node; a mesh
// may have one member (an edged started without -peers), which simply has
// nobody to probe, fetch from or hand off to. The node knows the static
// peer list, probes peer liveness, and maintains a consistent-hash ring
// (cluster.Ring) over the live members; clients route with the same ring
// through a Router. Members are usually edged
// processes cooperating over TCP; because a peer address may also name
// the in-memory transport (rpc.Listen, "mem:<name>"), any number of
// members can equally run inside one process, each an edged daemon
// (edged.NewMember, the one member constructor: this node, its System and
// the request server) serving its peers with no sockets. edged.StartCluster
// is the one boot of such a mesh, which is how the experiments and this
// package's tests run one. On top of membership
// the node provides the two cross-member data paths:
//
//   - cooperative fetch: the node implements edge.Fetcher; a local
//     general-model cache miss probes peer caches over the wire
//     (OpFetchModel) in ring order before paying the cloud
//     origin. Latency is accounted as simulated mesh-link transfer
//     time, not wall-clock.
//
//   - handover: when a user's serving node changes (a move or a drain),
//     the old owner exports the user's record — individual models of
//     both edge sides, the per-user noise sequence, the selection belief
//     and the pending update buffers — and pushes it to the new owner
//     (OpHandoverPush), which resumes the user's stream bit-identically.
//     Every user push carries the whole record; the member's users are
//     exactly its System's records (core.System.Users).
package mesh

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/netsim"
	"repro/internal/rpc"
)

// Config parameterizes a mesh member. Zero fields select documented
// defaults.
type Config struct {
	// Self identifies this member: Name ("node-i"), ring index i, and
	// the address peers reach it at.
	Self rpc.PeerInfo
	// Peers lists every other static member. Indices must be distinct
	// and, together with Self.Index, cover 0..len(Peers) so every member
	// and every Router build the same ring.
	Peers []rpc.PeerInfo
	// MeshLink models inter-node transfers (default 10 ms, 100 Mbps).
	MeshLink netsim.Link
	// RingSeed places the virtual points (default 1). Every member and
	// every Router of one mesh must use the same seed; edged passes its
	// system seed.
	RingSeed uint64
	// ProbeInterval is the liveness-probe period (default 1s).
	ProbeInterval time.Duration
	// Replicas keeps that many ring-successors warm for hot general
	// models: once a domain's local transmit count crosses the promotion
	// threshold, its general model is proactively pushed to the next
	// Replicas live successors, so the member's death or drain costs zero
	// origin re-fetches for hot models. 0 (the default) disables
	// replication.
	Replicas int
	// Logf receives mesh events; nil discards them.
	Logf func(format string, args ...interface{})
}

func (cfg Config) withDefaults() Config {
	if cfg.MeshLink == (netsim.Link{}) {
		cfg.MeshLink = netsim.Link{Latency: 10 * time.Millisecond, BandwidthBps: 100e6}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return cfg
}

// callTimeout bounds every mesh RPC, probes included.
const callTimeout = 2 * time.Second

// peer is one remote member: a lazily-dialed client plus liveness state.
type peer struct {
	info rpc.PeerInfo

	// stateMu serializes liveness transitions so an up observation from a
	// concurrent probe cannot interleave with the departed pin-down.
	stateMu  sync.Mutex
	alive    atomic.Bool
	departed atomic.Bool

	// lastStats is the peer's most recent OpPeerStats snapshot, refreshed
	// by the probe loop; nil before the first successful probe.
	lastStats atomic.Pointer[rpc.NodeStats]

	mu     sync.Mutex
	client *rpc.Client
}

// usable reports the peer is believed alive and not pinned down by an
// OpLeave observation.
func (p *peer) usable() bool { return p.alive.Load() && !p.departed.Load() }

// call dials the peer if needed and runs fn on its client, serializing
// callers (the underlying connection carries one request at a time). The
// call is bounded by both ctx and callTimeout, whichever expires first, so a
// dead peer can never stall a shutdown past its drain budget. A transport
// failure tears the connection down so the next call redials; a refusal
// the peer answered with (*rpc.RemoteError) leaves it in place.
func (p *peer) call(ctx context.Context, fn func(ctx context.Context, c *rpc.Client) error) error {
	ctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client == nil {
		conn, err := rpc.DialContext(ctx, p.info.Addr)
		if err != nil {
			return err
		}
		p.client = rpc.NewClient(conn)
	}
	err := fn(ctx, p.client)
	if transportFailure(err) {
		p.client.Close()
		p.client = nil
	}
	return err
}

// transportFailure reports whether err is a failed exchange rather than an
// answer: nil and *rpc.RemoteError are answers.
func transportFailure(err error) bool {
	var remote *rpc.RemoteError
	return err != nil && !errors.As(err, &remote)
}

func (p *peer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client != nil {
		p.client.Close()
		p.client = nil
	}
}

// Node is one member's mesh membership: liveness view, ring, coop
// fetcher and handover endpoints. It implements edge.Fetcher.
type Node struct {
	cfg   Config
	self  rpc.PeerInfo
	total int // static mesh size

	// Bound after core.NewSystem via Bind.
	sys    *core.System
	origin edge.Fetcher
	corp   *corpus.Corpus

	mu    sync.RWMutex
	peers map[int]*peer // static; peer state mutates, map does not
	ring  *cluster.Ring

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// asyncMu gates goAsync against wg.Wait: once stopping is set no new
	// background work may enter the wait group.
	asyncMu  sync.Mutex
	stopping bool

	// heat counts transmits per domain on this member; replicated marks
	// domains whose general model this member already pushed to its
	// successors. Both only populate with Replicas > 0.
	heatMu     sync.Mutex
	heat       map[string]int64
	replicated map[string]bool

	neighborHits   atomic.Int64
	neighborServed atomic.Int64
	neighborBytes  atomic.Int64
	originFetches  atomic.Int64
	originBytes    atomic.Int64
	fetchLatency   atomic.Int64 // summed simulated ns
	handoversIn    atomic.Int64
	handoversOut   atomic.Int64
	migratedBytes  atomic.Int64
	replicasIn     atomic.Int64
	replicasOut    atomic.Int64
}

// NewNode validates the static membership and builds the node. Every
// member starts presumed alive: the ring initially spans the whole static
// membership, and the probe loop (Start) demotes members that turn out to
// be unreachable.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	total := len(cfg.Peers) + 1
	seen := map[int]bool{cfg.Self.Index: true}
	if cfg.Self.Index < 0 || cfg.Self.Index >= total {
		return nil, fmt.Errorf("mesh: self index %d out of range [0,%d)", cfg.Self.Index, total)
	}
	n := &Node{
		cfg:        cfg,
		self:       cfg.Self,
		total:      total,
		peers:      make(map[int]*peer, len(cfg.Peers)),
		stop:       make(chan struct{}),
		heat:       make(map[string]int64, 8),
		replicated: make(map[string]bool, 8),
	}
	for _, pi := range cfg.Peers {
		if pi.Index < 0 || pi.Index >= total || seen[pi.Index] {
			return nil, fmt.Errorf("mesh: peer %q index %d duplicate or out of range [0,%d)", pi.Name, pi.Index, total)
		}
		if pi.Addr == "" {
			return nil, fmt.Errorf("mesh: peer %q has no address", pi.Name)
		}
		seen[pi.Index] = true
		p := &peer{info: pi}
		p.alive.Store(true)
		n.peers[pi.Index] = p
	}
	n.rebuildRing()
	return n, nil
}

// Bind attaches the serving system and builds the origin fallback from
// it: the system's cloud registry, charged over edge's cloud link.
// It must run after core.NewSystem and before serving; the chicken-and-egg
// is inherent — the system is built with the node as its SenderFetcher,
// while the node's origin fallback needs the system's cloud registry.
func (n *Node) Bind(sys *core.System) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sys = sys
	n.origin = edge.NewOriginFetcher(sys.Cloud)
	n.corp = sys.Corpus
}

// system returns the System Bind attached, nil before that.
func (n *Node) system() *core.System {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.sys
}

// Self returns this member's identity.
func (n *Node) Self() rpc.PeerInfo { return n.self }

// Total returns the static mesh size.
func (n *Node) Total() int { return n.total }

// Start announces this member to its peers (best-effort) and launches
// the liveness-probe loop.
func (n *Node) Start() {
	for _, p := range n.peersByIndex() {
		p := p
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.join(p)
		}()
	}
	n.wg.Add(1)
	go n.probeLoop()
}

// beginStop closes the stop channel exactly once and reports whether
// this caller won the shutdown race. Losing callers (a Stop after a
// Drain, concurrent Close/Kill) must not run the shutdown body again.
func (n *Node) beginStop() bool {
	won := false
	n.stopOnce.Do(func() {
		n.asyncMu.Lock()
		n.stopping = true
		n.asyncMu.Unlock()
		close(n.stop)
		won = true
	})
	return won
}

// goAsync runs f on the node's wait group unless shutdown already began.
// The asyncMu handshake with beginStop keeps wg.Add from racing the
// shutdown path's wg.Wait.
func (n *Node) goAsync(f func()) {
	n.asyncMu.Lock()
	defer n.asyncMu.Unlock()
	if n.stopping {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		f()
	}()
}

// Stop announces departure to live peers (best-effort, in parallel, each
// call deadline-bounded), stops probing and closes every peer
// connection. Unlike Drain it ships no state.
func (n *Node) Stop() {
	if !n.beginStop() {
		return
	}
	n.announceLeave(context.Background())
	n.wg.Wait()
	for _, p := range n.peersByIndex() {
		p.close()
	}
}

// Abort stops the node without announcing departure — the process-death
// path: peers must discover the loss through their liveness probes,
// exactly as with a real SIGKILL. Stop after Abort is a no-op.
func (n *Node) Abort() {
	if !n.beginStop() {
		return
	}
	n.wg.Wait()
	for _, p := range n.peersByIndex() {
		p.close()
	}
}

// announceLeave sends OpLeave to every usable peer in parallel. Each call
// is bounded by ctx and callTimeout, so a dead peer costs at most one
// timeout of the caller's budget, not one per peer.
func (n *Node) announceLeave(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range n.peersByIndex() {
		if !p.usable() {
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			err := n.call(ctx, p, func(ctx context.Context, c *rpc.Client) error {
				return c.Leave(ctx, n.self)
			})
			if err != nil {
				n.cfg.Logf("mesh: leave %s: %v", p.info.Name, err)
			}
		}(p)
	}
	wg.Wait()
}

// join performs the OpJoin handshake with one peer and applies the
// outcome to the liveness view.
func (n *Node) join(p *peer) {
	err := n.call(context.Background(), p, func(ctx context.Context, c *rpc.Client) error {
		_, err := c.Join(ctx, n.self)
		return err
	})
	if err != nil {
		n.cfg.Logf("mesh: join %s (%s): %v", p.info.Name, p.info.Addr, err)
		return
	}
	n.setAlive(p, true)
}

// probeLoop probes every peer once per ProbeInterval, flipping liveness
// on the observed outcome. The probe is OpPeerStats rather than a bare
// ping: the response piggybacks the peer's cached-general list and
// domain-heat snapshot, which coordinated eviction and replication feed
// on. Departed peers are skipped — only a fresh OpJoin revives them.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		for _, p := range n.peersByIndex() {
			if p.departed.Load() {
				continue
			}
			err := n.call(context.Background(), p, func(ctx context.Context, c *rpc.Client) error {
				st, err := c.PeerStats(ctx)
				if err == nil {
					p.lastStats.Store(st)
				}
				return err
			})
			if err == nil {
				n.setAlive(p, true)
			}
		}
	}
}

// call runs fn on p's client (peer.call) and is the one place where a
// call's failure changes p's liveness: a transport failure marks p down,
// and an error p answered with never does — the peer that refused a push
// or a fetch is alive and keeps its place on the ring.
func (n *Node) call(ctx context.Context, p *peer, fn func(ctx context.Context, c *rpc.Client) error) error {
	err := p.call(ctx, fn)
	if transportFailure(err) {
		n.setAlive(p, false)
	}
	return err
}

// push ships one handover-push payload to p.
func (n *Node) push(ctx context.Context, p *peer, h *rpc.HandoffPayload) error {
	return n.call(ctx, p, func(ctx context.Context, c *rpc.Client) error {
		return c.HandoverPush(ctx, h)
	})
}

// setAlive records a liveness observation, rebuilding the ring on a
// transition. An up observation for a peer pinned down by HandleLeave is
// discarded: the departure announcement is authoritative, and a liveness
// probe that raced it (the probe succeeded against the member while it
// was still draining) must not resurrect the departed member.
func (n *Node) setAlive(p *peer, alive bool) {
	p.stateMu.Lock()
	if alive && p.departed.Load() {
		p.stateMu.Unlock()
		return
	}
	changed := p.alive.Swap(alive) != alive
	p.stateMu.Unlock()
	if !changed {
		return
	}
	if alive {
		n.cfg.Logf("mesh: peer %s up", p.info.Name)
	} else {
		n.cfg.Logf("mesh: peer %s down, rebalancing", p.info.Name)
	}
	n.mu.Lock()
	n.rebuildRing()
	n.mu.Unlock()
}

// rebuildRing recomputes the ring over the live members. Callers hold
// n.mu (NewNode runs before concurrency starts).
func (n *Node) rebuildRing() {
	n.ring = newRing(n.liveMembersLocked(), n.cfg.RingSeed)
}

func (n *Node) liveMembersLocked() []int {
	members := []int{n.self.Index}
	for idx, p := range n.peers {
		if p.alive.Load() {
			members = append(members, idx)
		}
	}
	sort.Ints(members)
	return members
}

// LiveMembers returns the sorted indices of the members this node
// believes are alive (always including itself).
func (n *Node) LiveMembers() []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.liveMembersLocked()
}

// Owner returns the ring index that owns user under the current live
// membership.
func (n *Node) Owner(user string) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring.Node(user)
}

// Members returns the full static membership, self included, sorted by
// index.
func (n *Node) Members() []rpc.PeerInfo {
	out := make([]rpc.PeerInfo, 0, n.total)
	out = append(out, n.self)
	for _, p := range n.peersByIndex() {
		out = append(out, p.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// peersByIndex returns the remote peers in ascending index order.
func (n *Node) peersByIndex() []*peer {
	out := make([]*peer, 0, len(n.peers))
	for i := 0; i < n.total; i++ {
		if p, ok := n.peers[i]; ok {
			out = append(out, p)
		}
	}
	return out
}

// HandleJoin serves a peer's OpJoin: the announcement is a liveness
// observation, and the response tells the joiner who this node knows. A
// fresh join is the only event that lifts a departed pin.
func (n *Node) HandleJoin(pi rpc.PeerInfo) []rpc.PeerInfo {
	if p, ok := n.peers[pi.Index]; ok && p.info.Name == pi.Name {
		p.stateMu.Lock()
		p.departed.Store(false)
		changed := !p.alive.Swap(true)
		p.stateMu.Unlock()
		if changed {
			n.cfg.Logf("mesh: peer %s up", p.info.Name)
			n.mu.Lock()
			n.rebuildRing()
			n.mu.Unlock()
		}
	}
	return n.Members()
}

// HandleLeave serves a peer's OpLeave: an authoritative down observation
// that pins the member down. Probe successes observed concurrently (the
// draining member still answers RPCs until it exits) cannot resurrect
// it; only a fresh OpJoin does.
func (n *Node) HandleLeave(pi rpc.PeerInfo) {
	p, ok := n.peers[pi.Index]
	if !ok || p.info.Name != pi.Name {
		return
	}
	p.stateMu.Lock()
	p.departed.Store(true)
	changed := p.alive.Swap(false)
	p.stateMu.Unlock()
	if changed {
		n.cfg.Logf("mesh: peer %s left, rebalancing", p.info.Name)
		n.mu.Lock()
		n.rebuildRing()
		n.mu.Unlock()
	}
}

// Stats snapshots this member's mesh counters in the shared wire shape.
func (n *Node) Stats() rpc.NodeStats {
	sys := n.system()
	st := rpc.NodeStats{
		Name:           n.self.Name,
		HandoversIn:    n.handoversIn.Load(),
		HandoversOut:   n.handoversOut.Load(),
		NeighborHits:   n.neighborHits.Load(),
		NeighborServed: n.neighborServed.Load(),
		OriginFetches:  n.originFetches.Load(),
		NeighborBytes:  n.neighborBytes.Load(),
		OriginBytes:    n.originBytes.Load(),
		FetchLatencyMs: float64(n.fetchLatency.Load()) / float64(time.Millisecond),
		ReplicasIn:     n.replicasIn.Load(),
		ReplicasOut:    n.replicasOut.Load(),
	}
	if sys != nil {
		st.Users = sys.UserCount()
		st.HitRate = sys.Sender.CacheStats().HitRate()
		st.CachedModels = sys.Sender.Cache().Len()
		st.CacheUsedBytes = sys.Sender.Cache().Used()
		st.Generals = n.generalDomains(sys)
		m := sys.DecodeMemoStats()
		st.MemoStats = rpc.MemoStats{MemoLookups: m.Lookups, MemoHits: m.Hits, MemoInserts: m.Inserts, MemoReplaced: m.Replaced}
	}
	st.Hot = n.hotDomains()
	return st
}

// generalDomains lists the domains whose general model the sender cache
// holds, sorted.
func (n *Node) generalDomains(sys *core.System) []string {
	keys := sys.Sender.Cache().KeysWhere(func(k kb.Key) bool {
		return k.User == "" && k.Role == kb.RoleCodec
	})
	if len(keys) == 0 {
		return nil
	}
	doms := make([]string, len(keys))
	for i, k := range keys {
		doms[i] = k.Domain
	}
	sort.Strings(doms)
	return doms
}

// hotDomains snapshots the per-domain transmit counts, hottest first,
// capped to the hottest 8 — the popularity signal piggybacked on the
// OpPeerStats probe exchange.
func (n *Node) hotDomains() []rpc.DomainHeat {
	n.heatMu.Lock()
	out := make([]rpc.DomainHeat, 0, len(n.heat))
	for d, c := range n.heat {
		out = append(out, rpc.DomainHeat{Domain: d, Count: c})
	}
	n.heatMu.Unlock()
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Domain < out[j].Domain
	})
	if len(out) > 8 {
		out = out[:8]
	}
	return out
}

// EvictionGuard implements the mesh-wide last-holder check for
// coordinated eviction: evicting a general model is vetoed when, by this
// member's latest peer-stats snapshots, no live peer holds a copy — the
// aggregate mesh cache must not silently lose its only replica of a
// domain. User-individual models are always local-only and evict freely.
// The guard runs under the cache lock and reads only atomics.
func (n *Node) EvictionGuard(k kb.Key) bool {
	if k.User != "" || k.Role != kb.RoleCodec {
		return true
	}
	for _, p := range n.peersByIndex() {
		if !p.usable() {
			continue
		}
		st := p.lastStats.Load()
		if st == nil {
			continue
		}
		for _, d := range st.Generals {
			if d == k.Domain {
				return true
			}
		}
	}
	return false
}

// HandoverStats returns the aggregate handover counters, counted on the
// pushing side.
func (n *Node) HandoverStats() (handovers, migratedBytes int64) {
	return n.handoversOut.Load(), n.migratedBytes.Load()
}
