// Command bench is the wire-level end-to-end benchmark: it spawns real
// edged daemons built from this checkout, drives them over loopback TCP
// through rpc.Client from one process with 2 connections, and prints the
// end-to-end and per-layer metrics BENCHMARK.json declares. See README.md
// in this directory for the workload and metric definitions.
//
// Usage:
//
//	go run -C bench . [-seed 1] [-seconds 12]      # all workloads + traced reps
//	go run -C bench . -aa                          # two untraced sets must agree
//	bash bench/run.sh --workload wire_short --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/internal/corpus"
)

// reps is the number of repetitions whose median is a metric's value.
const reps = 5

// set is the result of one workload: its untraced repetitions and, when
// the per-layer numbers are wanted, the traced repetitions of the first
// tracePairs generator seeds.
type set struct {
	w       *workload
	runs    []*repResult
	metrics []map[string]float64 // per untraced repetition
	traced  []*repResult
}

func (s *set) median(name string) float64 {
	vals := make([]float64, len(s.metrics))
	for i, m := range s.metrics {
		vals[i] = m[name]
	}
	return median(vals)
}

func (s *set) minmax(name string) (lo, hi float64) {
	for i, m := range s.metrics {
		v := m[name]
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

func (s *set) totals() (attempted, failed int, firstFailure string) {
	for _, r := range s.runs {
		attempted += r.attempted
		failed += r.failed
		if firstFailure == "" {
			firstFailure = r.firstFailure
		}
	}
	return
}

// bench is one invocation's shared state.
type bench struct {
	env     *env
	corp    *corpus.Corpus
	seed    uint64
	scale   float64
	gateErr []string
}

// repSeed is the generator seed of repetition rep. Seeds of different
// -seed values never overlap, so two invocations share no traffic.
func (b *bench) repSeed(rep int) uint64 { return b.seed*1000 + uint64(rep) }

func (b *bench) gate(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	b.gateErr = append(b.gateErr, msg)
	fmt.Printf("GATE FAILED: %s\n", msg)
}

// tracePairs is the number of (untraced, traced) repetition pairs whose
// median difference is client.trace_overhead_pct: one pair wobbles more
// than the overhead it measures.
const tracePairs = 3

// runSets runs n repetitions of every workload in ws, interleaved
// round-robin (A B C D A B C D ...) so that drift in the machine's state
// spreads over all workloads instead of biasing one. Each of the first
// tracedN repetitions is followed at once by a traced repetition of the
// same generator seed, so that the two of a pair see the same machine.
func (b *bench) runSets(ws []*workload, tag string, n, tracedN int) (map[string]*set, error) {
	sets := make(map[string]*set, len(ws))
	for _, w := range ws {
		sets[w.name] = &set{w: w}
	}
	for rep := 0; rep < n; rep++ {
		for _, w := range ws {
			r, err := b.env.runRep(w, b.corp, b.repSeed(rep), b.scale, false, fmt.Sprintf("%s%d", tag, rep))
			if err != nil {
				return nil, err
			}
			s := sets[w.name]
			s.runs = append(s.runs, r)
			s.metrics = append(s.metrics, e2eOf(r, b.env.pretrainS))
			fmt.Fprintf(os.Stderr, "bench: %s rep %d/%d: %.0f req/s, p50 %.3f ms, p99 %.3f ms at reference speed; machine speed %.2f, raw %.0f req/s in %.2fs\n",
				w.name, rep+1, n, s.metrics[rep]["req_per_s"], s.metrics[rep]["lat_p50_ms"], s.metrics[rep]["lat_p99_ms"],
				r.speed, ratio(float64(r.ok), r.wallS), r.wallS)
			if rep >= tracedN {
				continue
			}
			t, err := b.env.runRep(w, b.corp, b.repSeed(rep), b.scale, true, fmt.Sprintf("%s%dt", tag, rep))
			if err != nil {
				return nil, err
			}
			if rep > 0 {
				t.tracers = nil // only the first traced repetition's spans are kept
			}
			s.traced = append(s.traced, t)
		}
	}
	return sets, nil
}

// checkSet applies the correctness gates of an untraced set.
func (b *bench) checkSet(s *set) {
	attempted, failed, first := s.totals()
	if failed > 0 {
		b.gate("%s: %d of %d operations failed; first: %s", s.w.name, failed, attempted, first)
	}
	if acc := s.median("sem_accuracy"); acc < s.w.accFloor {
		b.gate("%s: sem_accuracy %.4f below floor %.2f", s.w.name, acc, s.w.accFloor)
	}
	if s.w.members > 1 {
		for i, r := range s.runs {
			if r.after.Handovers-r.before.Handovers <= 0 {
				b.gate("%s rep %d: no handovers in the measured window", s.w.name, i)
			}
			var hits int64
			for _, n := range r.after.Nodes {
				hits += n.NeighborHits
			}
			if hits <= 0 {
				b.gate("%s rep %d: no neighbor cache hits", s.w.name, i)
			}
		}
	}
}

func (b *bench) printSet(s *set) {
	warm, meas := s.w.counts(b.scale)
	fmt.Printf("\n== %s: %d reps (generator seeds %d..%d), %d conn x (%d warm-up + %d measured) requests per rep ==\n",
		s.w.name, len(s.runs), b.repSeed(0), b.repSeed(len(s.runs)-1), s.w.conns, warm, meas)
	fmt.Printf("  %-20s %-6s %14s %14s %14s  %s\n", "metric", "unit", "median", "min", "max", "samples")
	for _, spec := range endToEnd {
		lo, hi := s.minmax(spec.Name)
		samples := fmt.Sprintf("%d reps", len(s.runs))
		if strings.HasPrefix(spec.Name, "lat_") {
			samples = fmt.Sprintf("%d reps x %d latencies", len(s.runs), len(s.runs[0].lats))
		}
		fmt.Printf("  %-20s %-6s %14.6g %14.6g %14.6g  %s\n", spec.Name, spec.Unit, s.median(spec.Name), lo, hi, samples)
	}
	attempted, failed, _ := s.totals()
	fmt.Printf("  %-20s %-6s %14.6g %14s %14s  %d failed of %d operations\n", "fail_ratio", "ratio",
		ratio(float64(failed), float64(attempted)), "", "", failed, attempted)
	if s.w.serial {
		for i, r := range s.runs {
			fmt.Printf("  digest seed %d: %016x\n", b.repSeed(i), r.digest)
		}
	}
}

// layers computes and prints the per-layer metrics of a set run with
// traced repetitions. The first traced repetition gives the wire spans,
// the stats deltas and the streams of the stage replay and the frame
// measurements; every pair adds to the tracing overhead.
func (b *bench) layers(s *set) (map[string]float64, error) {
	w := s.w
	overhead := make([]float64, len(s.traced))
	for k, t := range s.traced {
		un := s.runs[k]
		if t.failed > 0 {
			b.gate("%s traced: %d of %d operations failed; first: %s", w.name, t.failed, t.attempted, t.firstFailure)
		}
		if w.serial && t.digest != un.digest {
			b.gate("%s: traced digest %016x differs from untraced %016x for seed %d", w.name, t.digest, un.digest, b.repSeed(k))
		}
		overhead[k] = 100 * (1 - ratio(e2eOf(t, 0)["req_per_s"], s.metrics[k]["req_per_s"]))
	}
	tr := s.traced[0]
	traceLog = append(traceLog, tr.tracers...)
	rp, err := b.env.replay(w, b.corp, tr.streams)
	if err != nil {
		return nil, err
	}
	// Client frames (transmit, move) and the members' handover pushes are
	// measured apart and mixed by their frame counts in the measured window.
	fc, err := measureFrames(tr.frames)
	if err != nil {
		return nil, err
	}
	push, err := measureFrames(rp.handoffFrames)
	if err != nil {
		return nil, err
	}
	fc = weighted(fc, float64(tr.attempted), push, float64(len(tr.moveHandover)))
	m := layerOf(b.env, tr, rp, fc, median(overhead))
	if r := m["core.stage_sum_ratio"]; w.name == "long_msg" && (r < 0.90 || r > 1.10) {
		b.gate("long_msg: core.stage_sum_ratio %.3f outside 0.90-1.10: the stage spans do not add up to the transmit span", r)
	}
	fmt.Printf("\n-- %s per-layer (traced rep seed %d: %d wire requests, %d replayed, %d frames; %d traced/untraced pairs) --\n",
		w.name, b.repSeed(0), tr.ok, rp.requests, len(tr.frames)+len(rp.handoffFrames), len(s.traced))
	for _, spec := range perLayer {
		fmt.Printf("  %-34s %-6s %14.6g\n", spec.Name, spec.Unit, m[spec.Name])
	}
	return m, nil
}

// compareSets is the -aa check: two untraced sets of the same code must
// agree within each metric's bound; the deterministic ones to 0.1 %.
func (b *bench) compareSets(a, c map[string]*set) {
	fmt.Printf("\n== A/A: two untraced sets of the same code ==\n")
	fmt.Printf("  %-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "diff", "bound")
	for _, w := range workloads {
		sa, sc := a[w.name], c[w.name]
		for _, spec := range endToEnd {
			va, vc := sa.median(spec.Name), sc.median(spec.Name)
			diff := ratio(vc-va, va)
			if diff < 0 {
				diff = -diff
			}
			bound := spec.Bound
			if spec.Name == "payload_b_per_msg" || spec.Name == "sim_latency_ms" {
				bound = 0.001
			}
			fmt.Printf("  %-12s %-20s %14.6g %14.6g %8.2f%% %6.1f%%\n", w.name, spec.Name, va, vc, 100*diff, 100*bound)
			if diff > bound {
				b.gate("A/A %s %s: %.6g vs %.6g differ by %.2f%% > %.1f%%", w.name, spec.Name, va, vc, 100*diff, 100*bound)
			}
		}
		if w.serial {
			for i := range sa.runs {
				if sa.runs[i].digest != sc.runs[i].digest {
					b.gate("A/A %s seed %d: digest %016x vs %016x", w.name, b.repSeed(i), sa.runs[i].digest, sc.runs[i].digest)
				}
			}
		}
	}
}

// result is the driver's last-line JSON object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "run one workload and print a JSON result line (driver mode); empty runs all four")
		seed    = flag.Uint64("seed", 1, "traffic generator seed; repetition r uses seed*1000+r")
		seconds = flag.Float64("seconds", 12, "measured seconds per workload at today's speed, split over 5 repetitions of a fixed request count")
		trace   = flag.Int("trace", 0, "driver mode: 0 = untraced repetitions, end-to-end metrics; 1 = traced repetition, per-layer metrics")
		aa      = flag.Bool("aa", false, "run the untraced benchmark twice and fail unless the two sets agree within the bounds")
	)
	flag.Parse()
	if *seconds <= 0 {
		return errors.New("bench: -seconds must be positive")
	}
	if *aa && *name != "" {
		return errors.New("bench: -aa compares whole sets; it takes no -workload")
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			return fmt.Errorf("bench: unknown workload %q", *name)
		}
		ws = []*workload{w}
	}

	e, err := setup()
	if err != nil {
		return err
	}
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()

	b := &bench{env: e, corp: corpus.Build(), seed: *seed, scale: *seconds / (reps * nominalRepSeconds)}
	fmt.Printf("bench: %s, nproc %d, GOMAXPROCS %d, seed %d, scale %.2f, pretrain %.2fs\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), b.seed, b.scale, e.pretrainS)

	// out is the driver's result line; only its single-workload form
	// prints it.
	out := result{Metrics: map[string]metricValue{}}
	switch {
	case *aa:
		first, err := b.runSets(workloads, "a", reps, 0)
		if err != nil {
			return err
		}
		second, err := b.runSets(workloads, "b", reps, 0)
		if err != nil {
			return err
		}
		for _, w := range workloads {
			b.checkSet(first[w.name])
			b.checkSet(second[w.name])
			b.printSet(first[w.name])
		}
		b.compareSets(first, second)

	default:
		// All workloads: reps untraced repetitions, the first tracePairs
		// each followed by a traced twin. The driver's untraced form skips
		// the twins; its traced form runs only the pairs.
		n, tracedN := reps, tracePairs
		if *name != "" && *trace == 1 {
			n = tracePairs
		} else if *name != "" {
			tracedN = 0
		}
		sets, err := b.runSets(ws, "r", n, tracedN)
		if err != nil {
			return err
		}
		for _, w := range ws {
			b.checkSet(sets[w.name])
			b.printSet(sets[w.name])
		}
		for _, w := range ws {
			st := sets[w.name]
			out.Attempted, out.Failed, _ = st.totals()
			if tracedN == 0 {
				for _, spec := range endToEnd {
					out.Metrics[spec.Name] = metricValue{st.median(spec.Name), spec.Unit}
				}
				continue
			}
			m, err := b.layers(st)
			if err != nil {
				return err
			}
			for _, spec := range perLayer {
				out.Metrics[spec.Name] = metricValue{m[spec.Name], spec.Unit}
			}
		}
	}

	if path, err := writeTrace(e.root); err != nil {
		return err
	} else if path != "" {
		fmt.Printf("\ntrace: %s\n", path)
	}
	if left := survivors(e.edgedBin); len(left) > 0 {
		b.gate("edged processes survived the benchmark: %v", left)
	}
	if *name != "" {
		out.Correct = len(b.gateErr) == 0
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
	}
	if len(b.gateErr) > 0 {
		sort.Strings(b.gateErr)
		return fmt.Errorf("bench: %d correctness gate(s) failed:\n  %s", len(b.gateErr), strings.Join(b.gateErr, "\n  "))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
