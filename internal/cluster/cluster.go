// Package cluster implements the multi-node semantic edge cluster of the
// paper's 6G deployment picture: N edge servers behind a router that
// assigns users to nodes by consistent hashing, migrates personalized
// models between nodes when users move (mobility-driven handover), and
// resolves cache misses cooperatively — a node probes its neighbors'
// caches before paying the cloud-origin fetch.
//
// A Cluster is deterministic given its Config and is safe for concurrent
// use across users; operations for one user (Move versus that user's
// model accesses) must be externally serialized, which core.System does
// with its per-user locks.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/netsim"
	"repro/internal/rpc"
)

// Config parameterizes a cluster. Zero fields select documented defaults.
type Config struct {
	// Nodes is the number of edge nodes (default 2).
	Nodes int
	// CacheBytes is the per-node model-cache capacity; required.
	CacheBytes int64
	// Policy names the per-node cache eviction policy (default "lru").
	Policy string
	// Uplink is the node-to-cloud link paid on origin fetches (default
	// 40 ms, 200 Mbps).
	Uplink netsim.Link
	// Mesh is the node-to-node link paid on cooperative fetches and
	// handover migrations (default 5 ms, 400 Mbps: edge sites are close).
	Mesh netsim.Link
	// ComputePerToken, PinGeneral and BufferThreshold pass through to each
	// node's edge server.
	ComputePerToken time.Duration
	PinGeneral      bool
	BufferThreshold int
	// Replicas is the number of virtual points per node on the hash ring
	// (default 64).
	Replicas int
	// Seed places the ring's virtual points (default 1).
	Seed uint64
}

// withDefaults returns cfg with zero fields replaced.
func (cfg Config) withDefaults() Config {
	if cfg.Nodes == 0 {
		cfg.Nodes = 2
	}
	if cfg.Policy == "" {
		cfg.Policy = "lru"
	}
	if cfg.Uplink == (netsim.Link{}) {
		cfg.Uplink = netsim.Link{Latency: 40 * time.Millisecond, BandwidthBps: 200e6}
	}
	if cfg.Mesh == (netsim.Link{}) {
		cfg.Mesh = netsim.Link{Latency: 5 * time.Millisecond, BandwidthBps: 400e6}
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Node is one edge server in the cluster plus its per-node counters.
type Node struct {
	index int
	name  string
	edge  *edge.Server

	handoversIn    atomic.Int64
	handoversOut   atomic.Int64
	neighborHits   atomic.Int64 // misses this node resolved from a neighbor
	neighborBytes  atomic.Int64
	neighborServed atomic.Int64 // probes this node's cache answered for peers
	originFetches  atomic.Int64
	originBytes    atomic.Int64
	fetchLatency   atomic.Int64 // cumulative simulated miss-path latency, ns
}

// Index returns the node's position in the cluster.
func (n *Node) Index() int { return n.index }

// Name returns the node name ("node-0", ...).
func (n *Node) Name() string { return n.name }

// Edge returns the node's edge server.
func (n *Node) Edge() *edge.Server { return n.edge }

// Cluster is a running multi-node edge deployment.
type Cluster struct {
	cfg   Config
	nodes []*Node
	ring  *Ring

	// mu guards the routing state: the mobility override and the set of
	// users ever routed (for per-node occupancy stats).
	mu       sync.RWMutex
	override map[string]int
	seen     map[string]struct{}

	handovers      atomic.Int64
	migratedModels atomic.Int64
	migratedBytes  atomic.Int64
	migrateLatency atomic.Int64 // ns
}

// New builds a cluster of cfg.Nodes edge servers backed by the given
// cloud origin registry.
func New(cfg Config, origin *kb.Registry) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if origin == nil {
		return nil, errors.New("cluster: nil origin registry")
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 node, got %d", cfg.Nodes)
	}
	if _, ok := cache.NewPolicy(cfg.Policy); !ok {
		return nil, fmt.Errorf("cluster: unknown cache policy %q", cfg.Policy)
	}
	c := &Cluster{
		cfg:      cfg,
		nodes:    make([]*Node, cfg.Nodes),
		ring:     NewRing(cfg.Nodes, cfg.Replicas, cfg.Seed),
		override: make(map[string]int, 64),
		seen:     make(map[string]struct{}, 64),
	}
	for i := range c.nodes {
		node := &Node{index: i, name: fmt.Sprintf("node-%d", i)}
		policy, _ := cache.NewPolicy(cfg.Policy)
		srv, err := edge.New(edge.Config{
			Name:            node.name,
			CacheCapacity:   cfg.CacheBytes,
			Policy:          policy,
			Uplink:          cfg.Uplink,
			ComputePerToken: cfg.ComputePerToken,
			PinGeneral:      cfg.PinGeneral,
			BufferThreshold: cfg.BufferThreshold,
			Fetcher:         &coopFetcher{cluster: c, node: node, origin: edge.NewOriginFetcher(origin, cfg.Uplink)},
		}, origin)
		if err != nil {
			return nil, err
		}
		node.edge = srv
		c.nodes[i] = node
	}
	return c, nil
}

// NumNodes returns the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Route returns the node currently serving user: the mobility override
// when one is set, else the consistent-hash assignment.
func (c *Cluster) Route(user string) *Node {
	c.mu.RLock()
	n, overridden := c.override[user]
	_, known := c.seen[user]
	c.mu.RUnlock()
	if overridden {
		return c.nodes[n]
	}
	if !known {
		c.mu.Lock()
		c.seen[user] = struct{}{}
		c.mu.Unlock()
	}
	return c.nodes[c.ring.Node(user)]
}

// HandoverResult reports one mobility event.
type HandoverResult struct {
	User string
	// From and To are node indices; Moved is false when the user was
	// already served by the target node (no handover needed).
	From, To int
	Moved    bool
	// Models and Bytes count the migrated individual models; Latency is
	// the simulated mesh transfer time for the migration payload.
	Models  int
	Bytes   int64
	Latency time.Duration
}

// Move attaches user to the node serving cell (cell indices wrap around
// the cluster size), executing a handover when the serving node changes:
// every individual model the old node holds for the user is exported,
// shipped over the mesh, imported on the new node and dropped at the
// source, so personalization survives the move. The user's pending
// update transactions move with them — whether or not an individual model
// exists yet — so the next update fires at the same threshold crossing on
// the new node and the old one keeps nothing of the user.
//
// Calls for one user must not race that user's model accesses; core
// serializes them under its per-user lock.
func (c *Cluster) Move(user string, cell int) (HandoverResult, error) {
	n := len(c.nodes)
	target := ((cell % n) + n) % n
	from := c.Route(user)
	c.mu.Lock()
	c.override[user] = target
	c.seen[user] = struct{}{}
	c.mu.Unlock()
	res := HandoverResult{User: user, From: from.index, To: target}
	if from.index == target {
		return res, nil
	}
	res.Moved = true
	to := c.nodes[target]
	for _, domain := range from.edge.UserDomains(user) {
		exp, err := from.edge.ExportUserModel(domain, user)
		if errors.Is(err, edge.ErrNoIndividual) {
			// The unpinned entry was evicted between enumeration and export;
			// the user simply re-personalizes on the new node.
			continue
		}
		if err != nil {
			return res, fmt.Errorf("cluster: export %s/%s from %s: %w", user, domain, from.name, err)
		}
		if err := to.edge.ImportUserModel(exp); err != nil {
			return res, fmt.Errorf("cluster: import %s/%s into %s: %w", user, domain, to.name, err)
		}
		from.edge.DropUserModel(domain, user)
		res.Models++
		res.Bytes += exp.SizeBytes()
	}
	to.edge.ImportUserBuffers(user, from.edge.ExportUserBuffers(user))
	from.edge.DropUserBuffers(user)
	res.Latency = c.cfg.Mesh.TransferTime(res.Bytes)
	c.handovers.Add(1)
	c.migratedModels.Add(int64(res.Models))
	c.migratedBytes.Add(res.Bytes)
	c.migrateLatency.Add(int64(res.Latency))
	from.handoversOut.Add(1)
	to.handoversIn.Add(1)
	return res, nil
}

// coopFetcher resolves one node's cache misses cooperatively: probe every
// other node's cache in deterministic ring order (nearest successor
// first), paying one mesh hop on a neighbor hit; fall back to the
// standard origin fetcher over the uplink. Neighbor probes use Peek so
// remote demand never distorts the neighbor's own eviction policy or hit
// statistics.
type coopFetcher struct {
	cluster *Cluster
	node    *Node
	origin  edge.Fetcher
}

// FetchModel implements edge.Fetcher.
func (f *coopFetcher) FetchModel(k kb.Key) (edge.Fetch, error) {
	n := len(f.cluster.nodes)
	for off := 1; off < n; off++ {
		nb := f.cluster.nodes[(f.node.index+off)%n]
		m, ok := nb.edge.Cache().Peek(k)
		if !ok {
			continue
		}
		lat := f.cluster.cfg.Mesh.TransferTime(m.SizeBytes())
		f.node.neighborHits.Add(1)
		f.node.neighborBytes.Add(m.SizeBytes())
		f.node.fetchLatency.Add(int64(lat))
		nb.neighborServed.Add(1)
		return edge.Fetch{Model: m, Latency: lat, Remote: true}, nil
	}
	fetch, err := f.origin.FetchModel(k)
	if err != nil {
		return edge.Fetch{}, err
	}
	f.node.originFetches.Add(1)
	f.node.originBytes.Add(fetch.Model.SizeBytes())
	f.node.fetchLatency.Add(int64(fetch.Latency))
	return fetch, nil
}

// NodeStats is one node's counter snapshot.
type NodeStats struct {
	Name string
	// Users is the number of known users currently routed to this node.
	Users int
	// Cache is the node's model-cache counter snapshot; CachedModels and
	// CacheUsedBytes describe current occupancy.
	Cache          cache.Stats
	CachedModels   int
	CacheUsedBytes int64
	// Handover and cooperative-fetch traffic.
	HandoversIn    int64
	HandoversOut   int64
	NeighborHits   int64
	NeighborBytes  int64
	NeighborServed int64
	OriginFetches  int64
	OriginBytes    int64
	// FetchLatency is the cumulative simulated miss-path transfer time.
	FetchLatency time.Duration
}

// RPC converts the snapshot to its wire form. The mapping is the single
// source of truth for how node counters serialize, shared by the
// single-process cluster daemon and each mesh peer, so per-process stats
// aggregate identically to the in-process cluster's counters.
func (s NodeStats) RPC() rpc.NodeStats {
	return rpc.NodeStats{
		Name:           s.Name,
		Users:          s.Users,
		HitRate:        s.Cache.HitRate(),
		CachedModels:   s.CachedModels,
		CacheUsedBytes: s.CacheUsedBytes,
		HandoversIn:    s.HandoversIn,
		HandoversOut:   s.HandoversOut,
		NeighborHits:   s.NeighborHits,
		NeighborBytes:  s.NeighborBytes,
		NeighborServed: s.NeighborServed,
		OriginFetches:  s.OriginFetches,
		OriginBytes:    s.OriginBytes,
		FetchLatencyMs: float64(s.FetchLatency) / float64(time.Millisecond),
	}
}

// Stats is a whole-cluster counter snapshot.
type Stats struct {
	Nodes []NodeStats
	// Handovers counts user moves that changed nodes; MigratedModels and
	// MigratedBytes the individual models shipped over the mesh for them.
	Handovers      int64
	MigratedModels int64
	MigratedBytes  int64
	MigrateLatency time.Duration
}

// NeighborHits sums cooperative cache hits across nodes.
func (s Stats) NeighborHits() int64 {
	var total int64
	for _, n := range s.Nodes {
		total += n.NeighborHits
	}
	return total
}

// Stats snapshots every counter in the cluster.
func (c *Cluster) Stats() Stats {
	occupancy := make([]int, len(c.nodes))
	c.mu.RLock()
	for user := range c.seen {
		if n, ok := c.override[user]; ok {
			occupancy[n]++
		} else {
			occupancy[c.ring.Node(user)]++
		}
	}
	c.mu.RUnlock()
	st := Stats{
		Nodes:          make([]NodeStats, len(c.nodes)),
		Handovers:      c.handovers.Load(),
		MigratedModels: c.migratedModels.Load(),
		MigratedBytes:  c.migratedBytes.Load(),
		MigrateLatency: time.Duration(c.migrateLatency.Load()),
	}
	for i, n := range c.nodes {
		st.Nodes[i] = NodeStats{
			Name:           n.name,
			Users:          occupancy[i],
			Cache:          n.edge.CacheStats(),
			CachedModels:   n.edge.Cache().Len(),
			CacheUsedBytes: n.edge.Cache().Used(),
			HandoversIn:    n.handoversIn.Load(),
			HandoversOut:   n.handoversOut.Load(),
			NeighborHits:   n.neighborHits.Load(),
			NeighborBytes:  n.neighborBytes.Load(),
			NeighborServed: n.neighborServed.Load(),
			OriginFetches:  n.originFetches.Load(),
			OriginBytes:    n.originBytes.Load(),
			FetchLatency:   time.Duration(n.fetchLatency.Load()),
		}
	}
	return st
}
