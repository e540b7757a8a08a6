package experiments

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// E2Options parameterizes the cache-policy comparison.
type E2Options struct {
	// Capacities lists cache sizes in model-equivalents (default 1..8).
	Capacities []int
	// Policies to compare (default lru, lfu, fifo, gdsf).
	Policies []string
	// Requests per configuration (default 5000).
	Requests int
	// ZipfS is the domain-popularity skew (default 1.0).
	ZipfS float64
	// Seed drives the workload (default 1).
	Seed uint64
}

func (o E2Options) withDefaults() E2Options {
	if len(o.Capacities) == 0 {
		o.Capacities = []int{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if len(o.Policies) == 0 {
		o.Policies = []string{"lru", "lfu", "fifo", "gdsf"}
	}
	if o.Requests == 0 {
		o.Requests = 5000
	}
	if o.ZipfS == 0 {
		o.ZipfS = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E2Cell is one (policy, capacity) measurement.
type E2Cell struct {
	Policy      string
	Capacity    int
	HitRate     float64
	MeanFetchMs float64
	Evictions   uint64
}

// E2Result is the full grid.
type E2Result struct {
	Cells []E2Cell
}

// RunE2 replays a Zipf-skewed domain workload against an edge model cache
// for every (policy, capacity) pair, measuring hit rate and mean
// model-acquisition latency.
func RunE2(env *Env, opts E2Options) (*E2Result, error) {
	opts = opts.withDefaults()
	policies := make([]func() cache.Policy, len(opts.Policies))
	for i, name := range opts.Policies {
		var err error
		if policies[i], err = policyByName(name); err != nil {
			return nil, err
		}
	}
	// Cloud with one general codec model per domain. Capacity units use
	// the largest model so "n model-equivalents" always fits n models.
	cloud := kb.NewRegistry()
	var modelBytes int64
	for i, d := range env.Corpus.Domains {
		m := &kb.Model{Key: kb.GeneralKey(d.Name, kb.RoleCodec), Version: 1, Codec: env.Generals[i]}
		cloud.Put(m)
		if s := m.SizeBytes(); s > modelBytes {
			modelBytes = s
		}
	}
	w := trace.Generate(env.Corpus, trace.Config{
		Users: 16, Messages: opts.Requests, DomainZipfS: opts.ZipfS,
		MeanRunLength: 8, Seed: opts.Seed,
	})

	// Every (policy, capacity) cell replays the same read-only workload
	// against its own cache, so cells run through mat.ForEach; the
	// grid stays in insertion order because cells write by index.
	res := &E2Result{Cells: make([]E2Cell, len(opts.Policies)*len(opts.Capacities))}
	err := mat.ForEach(len(res.Cells), func(ci int) error {
		pi := ci / len(opts.Capacities)
		capModels := opts.Capacities[ci%len(opts.Capacities)]
		srv, err := edge.New(edge.Config{
			Name:          "edge-e2",
			CacheCapacity: modelBytes * int64(capModels),
			Policy:        policies[pi](),
			Uplink:        netsim.Link{Latency: 40 * time.Millisecond, BandwidthBps: 200e6},
		}, cloud)
		if err != nil {
			return err
		}
		var totalFetch time.Duration
		for _, req := range w.Requests {
			acq, err := srv.AcquireCodec(req.Msg.DomainName, "")
			if err != nil {
				return err
			}
			totalFetch += acq.FetchLatency
		}
		st := srv.CacheStats()
		res.Cells[ci] = E2Cell{
			Policy:      opts.Policies[pi],
			Capacity:    capModels,
			HitRate:     st.HitRate(),
			MeanFetchMs: float64(totalFetch.Milliseconds()) / float64(len(w.Requests)),
			Evictions:   st.Evictions,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// FigureB renders hit rate versus capacity, one column per policy.
func (r *E2Result) FigureB() *table {
	policies, capacities := r.axes()
	t := newTable("Figure B: model-cache hit rate vs capacity (Zipf domain popularity)",
		append([]string{"capacity_models"}, policies...)...)
	for _, c := range capacities {
		row := []string{fmt.Sprintf("%d", c)}
		for _, p := range policies {
			row = append(row, fixed(r.cell(p, c).HitRate, 3))
		}
		t.addRow(row...)
	}
	return t
}

// LatencyTable renders mean model-acquisition latency versus capacity.
func (r *E2Result) LatencyTable() *table {
	policies, capacities := r.axes()
	t := newTable("Figure B (companion): mean model-fetch latency per request, ms",
		append([]string{"capacity_models"}, policies...)...)
	for _, c := range capacities {
		row := []string{fmt.Sprintf("%d", c)}
		for _, p := range policies {
			row = append(row, fixed(r.cell(p, c).MeanFetchMs, 2))
		}
		t.addRow(row...)
	}
	return t
}

// axes recovers the distinct policies and capacities in insertion order.
func (r *E2Result) axes() (policies []string, capacities []int) {
	seenP := map[string]bool{}
	seenC := map[int]bool{}
	for _, c := range r.Cells {
		if !seenP[c.Policy] {
			seenP[c.Policy] = true
			policies = append(policies, c.Policy)
		}
		if !seenC[c.Capacity] {
			seenC[c.Capacity] = true
			capacities = append(capacities, c.Capacity)
		}
	}
	return policies, capacities
}

// cell looks up a grid cell.
func (r *E2Result) cell(policy string, capacity int) E2Cell {
	for _, c := range r.Cells {
		if c.Policy == policy && c.Capacity == capacity {
			return c
		}
	}
	return E2Cell{}
}
