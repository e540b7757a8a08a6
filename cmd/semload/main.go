// Command semload is a closed-loop load generator for edged: N concurrent
// users, each with its own sticky connection and deterministic RNG, draw
// messages from a configurable mix of corpus domains and keep exactly one
// request outstanding per user until a fixed request budget drains. It
// reports client-side throughput and a latency histogram, then the
// daemons' own counters.
//
// -mesh lists the members of the edged mesh it drives — one address for a
// lone daemon (the default, localhost:7060), several for a multi-node
// mesh. Requests route client-side over the same consistent-hash ring the
// members build (mesh.Router), and -spawn launches the members as child
// edged processes first — the laptop multi-node run.
//
// With -sweep it instead runs a saturation sweep: the same closed loop at
// each user count in the list, one summary line per stage, so the knee of
// the throughput curve (and the onset of shedding under -deadline) is
// visible in one run.
//
// With -mobility it runs the churn scenario: one
// serial deterministic request stream in which users roam across radio
// cells (OpMove) between transmits, so handovers and cooperative cache
// fetches happen under load. The run prints a 64-bit digest over every
// response; two runs with the same -seed against identically-started
// members are bit-identical. -chaos-kill SIGKILLs one spawned member
// halfway through the run, asserting that the survivors rebalance with
// zero lost requests. -chaos-term SIGTERMs the member instead: the
// victim drains gracefully (handing every owned model and user to the
// survivors) and the run additionally asserts a clean exit and zero
// survivor origin re-fetches.
//
// Usage:
//
//	semload [-mesh localhost:7060] [-users 8] [-requests 512] \
//	        [-mix it:3,med:1] [-seed 1] [-deadline 50ms]
//	semload -sweep 1,4,8,16,32 [-requests 512] ...
//	semload -mesh host0:7060,host1:7060,host2:7060 [-spawn -edged-bin ./edged] \
//	        [-mobility [-cells 3] [-move-rate 0.1] [-chaos-kill]] ...
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/rpc"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("semload: %v", err)
	}
}

// parseMix parses "it:3,med:1" into per-domain weights over corp. Names
// without an explicit weight get weight 1; an empty mix is uniform.
func parseMix(corp *corpus.Corpus, mix string) ([]float64, error) {
	weights := make([]float64, len(corp.Domains))
	if mix == "" {
		for i := range weights {
			weights[i] = 1
		}
		return weights, nil
	}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, hasW := strings.Cut(part, ":")
		w := 1.0
		if hasW {
			var err error
			if w, err = strconv.ParseFloat(wstr, 64); err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
		}
		d := corp.Domain(name)
		if d == nil {
			return nil, fmt.Errorf("unknown domain %q (have %v)", name, corp.Names())
		}
		weights[d.Index] += w
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", mix)
	}
	if math.IsInf(total, 0) {
		return nil, fmt.Errorf("mix %q overflows its total weight", mix)
	}
	return weights, nil
}

// pickDomain draws a domain index from the cumulative weights.
func pickDomain(rng *mat.RNG, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// parseSweep parses "1,4,8,32" into positive user counts.
func parseSweep(s string) ([]int, error) {
	var stages []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sweep stage %q", part)
		}
		stages = append(stages, n)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("sweep %q has no stages", s)
	}
	return stages, nil
}

// userLoop is one closed-loop client: claim a request from the shared
// budget, send it on the sticky connection, wait for the response, repeat.
// A non-zero deadline is applied per call and forwarded to the daemon's
// admission gate, so requests queued past it come back as Shed. A call
// whose deadline passes before the response arrives counts as timed out,
// and the client redials: a call cut short leaves the connection's framing
// undefined. Any other transport error ends the run.
func userLoop(addr, user string, rng *mat.RNG, corp *corpus.Corpus, cum []float64,
	deadline time.Duration, budget *atomic.Int64, hist *metrics.Histogram,
	sent []atomic.Int64, errs, shed, timedOut *atomic.Int64) error {
	cl, err := rpc.Dial(addr)
	if err != nil {
		return fmt.Errorf("%s: dial: %w", user, err)
	}
	defer func() { cl.Close() }()
	gen := corpus.NewGenerator(corp, rng)
	// send reports expired when the call's own deadline cut it short. The
	// connection's deadline is the context's, so its i/o timeout can fire
	// a moment before ctx.Err() turns non-nil.
	send := func(text string) (resp *rpc.Response, expired bool, err error) {
		ctx := context.Background()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		resp, err = cl.TransmitContext(ctx, user, text)
		return resp, err != nil && (ctx.Err() != nil || errors.Is(err, os.ErrDeadlineExceeded)), err
	}
	for budget.Add(-1) >= 0 {
		di := pickDomain(rng, cum)
		msg := gen.Message(di, nil)
		start := time.Now()
		resp, expired, err := send(msg.Text())
		if expired {
			timedOut.Add(1)
			cl.Close()
			next, err := rpc.Dial(addr)
			if err != nil {
				return fmt.Errorf("%s: redial: %w", user, err)
			}
			cl = next
			continue
		}
		if err != nil {
			return fmt.Errorf("%s: transmit: %w", user, err)
		}
		hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		sent[di].Add(1)
		switch {
		case resp.Shed:
			shed.Add(1)
		case !resp.OK:
			errs.Add(1)
		}
	}
	return nil
}

// loadResult is one closed-loop run's client-side outcome.
type loadResult struct {
	done      int64
	errs      int64
	shed      int64
	timedOut  int64
	elapsed   time.Duration
	hist      *metrics.Histogram
	sent      []atomic.Int64
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

// loadRun drains one request budget across `users` closed-loop clients,
// each dialing the address addrFor maps its user name to (the user's ring
// owner). Per-user RNGs split in user order from one seeded root, so a
// run is reproducible for any fixed (seed, users).
func loadRun(addrFor func(user string) string, users, requests int, deadline time.Duration,
	seed uint64, corp *corpus.Corpus, cum []float64) (*loadResult, error) {
	root := mat.NewRNG(seed)
	rngs := make([]*mat.RNG, users)
	for i := range rngs {
		rngs[i] = root.Split()
	}

	res := &loadResult{
		hist: metrics.NewLatencyHistogram(),
		sent: make([]atomic.Int64, len(corp.Domains)),
	}
	var (
		budget   atomic.Int64
		errs     atomic.Int64
		shed     atomic.Int64
		timedOut atomic.Int64
		loopErr  error
		errMu    sync.Mutex
		wg       sync.WaitGroup
	)
	budget.Store(int64(requests))

	runtime.ReadMemStats(&res.memBefore)
	start := time.Now()
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("u%03d", u)
			if err := userLoop(addrFor(user), user, rngs[u], corp, cum, deadline, &budget, res.hist, res.sent, &errs, &shed, &timedOut); err != nil {
				errMu.Lock()
				if loopErr == nil {
					loopErr = err
				}
				errMu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&res.memAfter)
	if loopErr != nil {
		return nil, loopErr
	}
	res.errs = errs.Load()
	res.shed = shed.Load()
	res.timedOut = timedOut.Load()
	res.done = res.hist.N()
	return res, nil
}

func run() error {
	var (
		users     = flag.Int("users", 8, "concurrent users, one sticky connection each")
		requests  = flag.Int("requests", 512, "total request budget across all users (per stage with -sweep)")
		mix       = flag.String("mix", "", "domain mix as name:weight,... (default uniform over all domains)")
		seed      = flag.Uint64("seed", 1, "deterministic seed; user u gets the u-th split")
		deadline  = flag.Duration("deadline", 0, "per-request deadline, forwarded to the daemon's admission gate (0 = none)")
		sweep     = flag.String("sweep", "", "saturation sweep: comma-separated user counts, one closed-loop stage each")
		mobility  = flag.Bool("mobility", false, "run the serial mobility scenario against the -mesh members")
		cells     = flag.Int("cells", 3, "radio cells users roam across (with -mobility)")
		moveRate  = flag.Float64("move-rate", 0.1, "per-request probability a user moves to a random cell (with -mobility)")
		meshList  = flag.String("mesh", "localhost:7060", "edged member list, comma-separated host:port in ring-index order (one address = a lone daemon); requests route client-side over the members' ring")
		spawn     = flag.Bool("spawn", false, "launch the -mesh members as child edged processes before the run")
		edgedBin  = flag.String("edged-bin", "edged", "edged binary to launch with -spawn")
		kbDir     = flag.String("kb", "", "pretrained model dir forwarded to spawned members (-spawn)")
		chaosKill = flag.Bool("chaos-kill", false, "SIGKILL one spawned mesh member halfway through a -mobility run")
		chaosTerm = flag.Bool("chaos-term", false, "SIGTERM one spawned mesh member halfway through a -mobility run (graceful drain; gates on zero errors and zero lost models)")
		replicas  = flag.Int("replicas", 0, "forward -replicas to spawned members: hot-model replication degree (-spawn)")
	)
	flag.Parse()
	if *users <= 0 || *requests <= 0 {
		return fmt.Errorf("need positive -users and -requests (got %d, %d)", *users, *requests)
	}
	if *mobility && *cells < 2 {
		return fmt.Errorf("-mobility needs at least 2 -cells, got %d", *cells)
	}
	if (*chaosKill || *chaosTerm) && (!*mobility || !*spawn) {
		return fmt.Errorf("-chaos-kill and -chaos-term require -mobility and -spawn: semload can only signal members it started")
	}
	if *chaosKill && *chaosTerm {
		return fmt.Errorf("-chaos-kill and -chaos-term are mutually exclusive")
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas must be >= 0, got %d", *replicas)
	}

	corp := corpus.Build()
	weights, err := parseMix(corp, *mix)
	if err != nil {
		return err
	}
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		sum += w
		cum[i] = sum
	}

	members, err := mesh.ParseMembers(*meshList)
	if err != nil {
		return fmt.Errorf("-mesh %q: %w", *meshList, err)
	}
	addrs := make([]string, len(members))
	for i, m := range members {
		addrs[i] = m.Addr
	}
	var children []*exec.Cmd
	if *spawn {
		var stop func()
		children, stop, err = spawnMesh(*edgedBin, addrs, *seed, *kbDir, *replicas)
		if err != nil {
			return err
		}
		defer stop()
	}
	router := mesh.NewRouter(addrs, *seed)
	defer router.Close()
	if *mobility {
		return runMeshMobility(router, addrs, children, *chaosKill, *chaosTerm, *users, *requests, *cells, *moveRate, *seed, corp, cum)
	}
	// Closed loop: each user's sticky connection goes to its ring owner.
	ownerAddr := func(user string) string { return addrs[router.Owner(user)] }
	if *sweep != "" {
		stages, err := parseSweep(*sweep)
		if err != nil {
			return err
		}
		if err := runSweep(ownerAddr, stages, *requests, *deadline, *seed, corp, cum); err != nil {
			return err
		}
	} else {
		res, err := loadRun(ownerAddr, *users, *requests, *deadline, *seed, corp, cum)
		if err != nil {
			return err
		}
		printLoadResult(res, *users, corp)
	}
	// Close with the daemons' own view of the run, merged over the members.
	st, err := router.MergedStats()
	if err != nil {
		return fmt.Errorf("daemon stats: %w", err)
	}
	st.Print(os.Stdout)
	return nil
}

// printLoadResult prints the client-side report of one closed-loop run.
func printLoadResult(res *loadResult, users int, corp *corpus.Corpus) {
	fmt.Printf("requests : %d ok, %d daemon errors, %d shed, %d timed out, %d users, %.2fs\n",
		res.done-res.errs-res.shed, res.errs, res.shed, res.timedOut, users, res.elapsed.Seconds())
	fmt.Printf("rate     : %.1f req/s (closed loop)\n", float64(res.done)/res.elapsed.Seconds())
	fmt.Printf("latency  : mean %.2f ms  p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
		res.hist.Mean(), res.hist.P(50), res.hist.P(95), res.hist.P(99))
	memReport(&res.memBefore, &res.memAfter, int(res.done))
	type dc struct {
		name string
		n    int64
	}
	mixed := make([]dc, 0, len(corp.Domains))
	for i := range res.sent {
		if n := res.sent[i].Load(); n > 0 {
			mixed = append(mixed, dc{corp.Domains[i].Name, n})
		}
	}
	sort.Slice(mixed, func(i, j int) bool { return mixed[i].n > mixed[j].n })
	parts := make([]string, len(mixed))
	for i, d := range mixed {
		parts[i] = fmt.Sprintf("%s:%d", d.name, d.n)
	}
	fmt.Printf("mix      : %s\n", strings.Join(parts, " "))
}

// runSweep drives one closed-loop stage per user count and prints a
// compact table: the stage where rate stops scaling (or shedding starts
// under -deadline) is the daemon's saturation point. Stage s runs with
// seed+s so stages do not replay identical traffic at a warming cache.
func runSweep(addrFor func(user string) string, stages []int, requests int, deadline time.Duration,
	seed uint64, corp *corpus.Corpus, cum []float64) error {
	fmt.Printf("%7s %10s %9s %9s %9s %6s %8s %6s\n",
		"users", "req/s", "p50 ms", "p95 ms", "p99 ms", "shed", "timeout", "errs")
	for s, n := range stages {
		res, err := loadRun(addrFor, n, requests, deadline, seed+uint64(s), corp, cum)
		if err != nil {
			return fmt.Errorf("sweep stage %d users: %w", n, err)
		}
		fmt.Printf("%7d %10.1f %9.2f %9.2f %9.2f %6d %8d %6d\n",
			n, float64(res.done)/res.elapsed.Seconds(),
			res.hist.P(50), res.hist.P(95), res.hist.P(99), res.shed, res.timedOut, res.errs)
	}
	return nil
}

// memReport prints the client-process allocation pressure of the load run
// from two runtime.MemStats snapshots: total bytes allocated, allocation
// count, GC cycles and cumulative pause time. Latency percentiles alone
// hide GC impact; this line puts them side by side.
func memReport(before, after *runtime.MemStats, requests int) {
	allocBytes := after.TotalAlloc - before.TotalAlloc
	allocs := after.Mallocs - before.Mallocs
	gcs := after.NumGC - before.NumGC
	pause := time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	perReq := float64(0)
	if requests > 0 {
		perReq = float64(allocBytes) / float64(requests)
	}
	fmt.Printf("memory   : %.1f MiB allocated (%.0f B/req), %d allocs, %d GC cycles, %s pause total\n",
		float64(allocBytes)/(1<<20), perReq, allocs, gcs, pause.Round(10*time.Microsecond))
}

// foldResponse folds the deterministic fields of one response into the
// run digest. Simulated latency is included (it is virtual time, not
// wall-clock); service-time metrics are not.
func foldResponse(digest *uint64, parts ...string) {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	// Mix order-dependently (boost-style) so reordered responses change
	// the digest even when the multiset of responses is unchanged.
	*digest ^= h.Sum64() + 0x9e3779b97f4a7c15 + (*digest << 6) + (*digest >> 2)
}
