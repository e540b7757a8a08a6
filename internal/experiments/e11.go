package experiments

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/edged"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/netsim"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// E11Options parameterizes the cluster-scale caching/handover trade-off
// sweep: cache policy x node count x mobility rate.
type E11Options struct {
	// Policies to compare (default lru, gdsf).
	Policies []string
	// NodeCounts to sweep (default 2, 4).
	NodeCounts []int
	// MobilityRates to sweep, per-request move probability (default 0,
	// 0.02, 0.10).
	MobilityRates []float64
	// Users and Requests size the workload (defaults 24 and 4000).
	Users    int
	Requests int
	// CapacityModels is the per-node cache size in model-equivalents
	// (default 3: small enough that eviction pressure is constant).
	CapacityModels int
	// Seed drives the workload and ring placement (default 1).
	Seed uint64
}

func (o E11Options) withDefaults() E11Options {
	if len(o.Policies) == 0 {
		o.Policies = []string{"lru", "gdsf"}
	}
	if len(o.NodeCounts) == 0 {
		o.NodeCounts = []int{2, 4}
	}
	if len(o.MobilityRates) == 0 {
		o.MobilityRates = []float64{0, 0.02, 0.10}
	}
	if o.Users == 0 {
		o.Users = 24
	}
	if o.Requests == 0 {
		o.Requests = 4000
	}
	if o.CapacityModels == 0 {
		o.CapacityModels = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E11Cell is one (policy, nodes, mobility) measurement.
type E11Cell struct {
	Policy       string
	Nodes        int
	MobilityRate float64
	// LocalHitRate aggregates node-local cache hits over all accesses.
	LocalHitRate float64
	// NeighborShare is the fraction of misses resolved from a neighbor
	// cache instead of the cloud origin.
	NeighborShare float64
	// Handovers and MigratedKB count mobility-driven model migrations.
	Handovers  int64
	MigratedKB float64
	// MeanFetchMs is the mean simulated miss-path latency per request.
	MeanFetchMs float64
}

// E11Result is the full grid.
type E11Result struct {
	Cells []E11Cell
}

// RunE11 replays a mobile workload against a model-serving edge mesh for
// every (policy, node count, mobility rate) combination: users roam
// between cells (handover migrates their personalized models) while nodes
// resolve cache misses cooperatively before paying the origin fetch. It
// reproduces the paper's caching/handover trade-off at cluster scale:
// mobility converts local hits into mesh traffic and migrations, and the
// eviction policy decides how much of the working set survives.
func RunE11(env *Env, opts E11Options) (*E11Result, error) {
	opts = opts.withDefaults()
	type combo struct {
		policy    string
		newPolicy func() cache.Policy
		nodes     int
		rate      float64
	}
	combos := make([]combo, 0, len(opts.Policies)*len(opts.NodeCounts)*len(opts.MobilityRates))
	for _, p := range opts.Policies {
		newPolicy, err := policyByName(p)
		if err != nil {
			return nil, err
		}
		for _, n := range opts.NodeCounts {
			for _, r := range opts.MobilityRates {
				combos = append(combos, combo{p, newPolicy, n, r})
			}
		}
	}
	var modelBytes int64
	for _, g := range env.Generals {
		modelBytes = max(modelBytes, g.SizeBytes())
	}

	res := &E11Result{Cells: make([]E11Cell, len(combos))}
	err := mat.ForEach(len(combos), func(ci int) (err error) {
		cb := combos[ci]
		// Cells map 1:1 onto nodes; the workload's cell indices wrap.
		w := trace.Generate(env.Corpus, trace.Config{
			Users: opts.Users, Messages: opts.Requests,
			Cells: cb.nodes, MobilityRate: cb.rate,
			MeanRunLength: 8, Seed: opts.Seed,
		})
		// Every member is an edged daemon on the in-memory transport. Nobody
		// probes (no Mesh.Start), so a cell is deterministic.
		c, err := edged.StartCluster(cb.nodes, "mem:", func(i int, members []rpc.PeerInfo) (*edged.Daemon, error) {
			return edged.NewMember(mesh.Config{
				Self:     members[i],
				Peers:    slices.Delete(slices.Clone(members), i, i+1),
				MeshLink: netsim.Link{Latency: 5 * time.Millisecond, BandwidthBps: 400e6},
				RingSeed: opts.Seed,
			}, core.Config{
				Policy:           cb.newPolicy,
				SenderCacheBytes: modelBytes * int64(opts.CapacityModels),
				Seed:             opts.Seed,
				Pretrained:       env.Generals,
			})
		}, nil)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, c.Stop()) }()
		router := mesh.NewRouter(c.Addrs, opts.Seed)
		personalized := make(map[string]bool, opts.Users*2)
		var totalFetch time.Duration
		next := 0
		for _, req := range w.Requests {
			for next < len(w.Moves) && w.Moves[next].Seq <= req.Seq {
				mv := w.Moves[next]
				if _, err := c.Members[router.Owner(mv.User)].Mesh.MoveUser(mv.User, mv.Cell); err != nil {
					return err
				}
				router.Moved(mv.User, mv.Cell)
				next++
			}
			sender := c.Members[router.Owner(req.User)].Sys.Sender
			// First touch of a (user, domain) pair personalizes there, so
			// mobility has individual models to migrate.
			pk := req.User + "/" + req.Msg.DomainName
			if !personalized[pk] {
				personalized[pk] = true
				_, lat, err := sender.Personalize(req.Msg.DomainName, req.User)
				if err != nil {
					return err
				}
				totalFetch += lat
			}
			acq, err := sender.AcquireCodec(req.Msg.DomainName, req.User)
			if err != nil {
				return err
			}
			totalFetch += acq.FetchLatency
		}
		cell := E11Cell{
			Policy:       cb.policy,
			Nodes:        cb.nodes,
			MobilityRate: cb.rate,
			MeanFetchMs:  float64(totalFetch.Milliseconds()) / float64(len(w.Requests)),
		}
		var hits, misses uint64
		var neighbor, origin, migrated int64
		for _, m := range c.Members {
			cs := m.Sys.Sender.CacheStats()
			hits += cs.Hits
			misses += cs.Misses
			ns := m.Mesh.Stats()
			neighbor += ns.NeighborHits
			origin += ns.OriginFetches
			handovers, bytes := m.Mesh.HandoverStats()
			cell.Handovers += handovers
			migrated += bytes
		}
		cell.MigratedKB = float64(migrated) / 1024
		if total := hits + misses; total > 0 {
			cell.LocalHitRate = float64(hits) / float64(total)
		}
		if total := neighbor + origin; total > 0 {
			cell.NeighborShare = float64(neighbor) / float64(total)
		}
		res.Cells[ci] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TableG renders the sweep: one row per combination.
func (r *E11Result) TableG() *table {
	t := newTable("Table G: cluster caching/handover trade-off (policy x nodes x mobility)",
		"policy", "nodes", "mobility", "local_hit", "neighbor_share", "handovers", "migrated_kb", "fetch_ms")
	for _, c := range r.Cells {
		t.addRow(c.Policy, fmt.Sprintf("%d", c.Nodes), fixed(c.MobilityRate, 2),
			fixed(c.LocalHitRate, 3), fixed(c.NeighborShare, 3),
			fmt.Sprintf("%d", c.Handovers), fixed(c.MigratedKB, 1), fixed(c.MeanFetchMs, 2))
	}
	return t
}
