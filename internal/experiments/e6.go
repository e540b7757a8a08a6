package experiments

import (
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// E6Options parameterizes the edge-versus-cloud latency comparison.
type E6Options struct {
	// Messages per condition (default 400).
	Messages int
	// Seed (default 1).
	Seed uint64
}

func (o E6Options) withDefaults() E6Options {
	if o.Messages == 0 {
		o.Messages = 400
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// E6Row is one caching condition's latency profile.
type E6Row struct {
	Condition string
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	Mean      time.Duration
	HitRate   float64
}

// E6Result compares caching conditions.
type E6Result struct {
	Rows []E6Row
}

// RunE6 measures end-to-end message latency under three model-placement
// conditions: a cold edge cache that fills on demand, a warm cache with
// pinned general models, and a thrashing cache too small to hold the
// working set (approximating fetch-from-cloud per domain switch).
func RunE6(env *Env, opts E6Options) (*E6Result, error) {
	opts = opts.withDefaults()
	type condition struct {
		name     string
		capacity int64 // model-equivalents; 0 = default (fits all)
		prewarm  bool
	}
	// Largest general codec model size, for capacity math.
	var modelBytes int64
	for _, g := range env.Generals {
		if s := g.SizeBytes(); s > modelBytes {
			modelBytes = s
		}
	}
	conds := []condition{
		{name: "warm edge cache (pinned)", prewarm: true},
		{name: "cold edge cache", capacity: 0},
		{name: "thrashing cache (1 model)", capacity: modelBytes + modelBytes/2},
	}
	res := &E6Result{Rows: make([]E6Row, 0, len(conds))}
	for _, cond := range conds {
		oracle := &Static{}
		cfg := core.Config{
			Selector:        oracle.shared,
			PinGeneral:      cond.prewarm,
			BufferThreshold: math.MaxInt,
			Seed:            opts.Seed,
			Pretrained:      env.Generals,
		}
		if cond.capacity > 0 {
			cfg.SenderCacheBytes = cond.capacity
			cfg.ReceiverCacheBytes = cond.capacity
			cfg.PinGeneral = false
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		if cond.prewarm {
			if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
				return nil, err
			}
			if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
				return nil, err
			}
		}
		// The hit rate counts the trace alone, not the prefetch.
		before := sys.Sender.CacheStats()
		w := trace.Generate(sys.Corpus, trace.Config{
			Users: 8, Messages: opts.Messages, MeanRunLength: 6, Seed: opts.Seed + 9,
		})
		results, err := RunTrace(sys, oracle, w)
		if err != nil {
			return nil, err
		}
		var lat durations
		for _, r := range results {
			lat.add(r.Latency)
		}
		after := sys.Sender.CacheStats()
		res.Rows = append(res.Rows, E6Row{
			Condition: cond.name,
			P50:       lat.percentile(50),
			P95:       lat.percentile(95),
			P99:       lat.percentile(99),
			Mean:      lat.mean(),
			HitRate:   cache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}.HitRate(),
		})
	}
	return res, nil
}

// TableC renders the latency percentile comparison.
func (r *E6Result) TableC() *table {
	t := newTable("Table C: end-to-end message latency by model placement",
		"condition", "p50_ms", "p95_ms", "p99_ms", "mean_ms", "sender_hit_rate")
	ms := func(d time.Duration) string { return fixed(float64(d)/float64(time.Millisecond), 2) }
	for _, row := range r.Rows {
		t.addRow(row.Condition, ms(row.P50), ms(row.P95), ms(row.P99), ms(row.Mean),
			fixed(row.HitRate, 3))
	}
	return t
}
