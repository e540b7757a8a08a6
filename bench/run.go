package main

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/rpc"
)

// slicesPerRep is the number of slices a repetition's measured window is
// cut into (each 100-150 ms at today's speed).
const slicesPerRep = 20

// frameSampleEvery picks which request/response pairs the traced run
// keeps for the rpc frame measurements.
const frameSampleEvery = 16

// framePair is one request with its response, as they crossed the wire.
type framePair struct {
	req  rpc.Request
	resp *rpc.Response
}

// acc accumulates one connection's (or the serial stream's) outcomes over
// the measured window. Each goroutine owns its acc; they merge at the end.
type acc struct {
	lats              []float64 // ms, one per transmit
	attempted, failed int       // transmits and moves
	ok                int       // OK transmits
	accSum            float64
	payload, simLat   float64
	selCorrect        int
	individual        int
	eligible, eligInd int
	updLats           []float64
	latSum            float64
	moveHandover      []float64
	moveNoop          []float64
	models, migrated  int64
	moveMs            float64
	digest            uint64
	frames            []framePair
	firstFailure      string
}

func (a *acc) fail(format string, args ...interface{}) {
	a.failed++
	if a.firstFailure == "" {
		a.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (a *acc) merge(b *acc) {
	a.lats = append(a.lats, b.lats...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.ok += b.ok
	a.accSum += b.accSum
	a.payload += b.payload
	a.simLat += b.simLat
	a.selCorrect += b.selCorrect
	a.individual += b.individual
	a.eligible += b.eligible
	a.eligInd += b.eligInd
	a.updLats = append(a.updLats, b.updLats...)
	a.latSum += b.latSum
	a.frames = append(a.frames, b.frames...)
	if a.firstFailure == "" {
		a.firstFailure = b.firstFailure
	}
}

// wordAccuracy is the share of restored words equal to the canonical
// surface of the sent message's concepts.
func wordAccuracy(restored string, d *corpus.Domain, concepts []int) float64 {
	match, i := 0, 0
	for len(restored) > 0 && i < len(concepts) {
		tok := restored
		if sp := strings.IndexByte(restored, ' '); sp >= 0 {
			tok, restored = restored[:sp], restored[sp+1:]
		} else {
			restored = ""
		}
		if tok == d.Canonical(concepts[i]) {
			match++
		}
		i++
	}
	return float64(match) / float64(len(concepts))
}

// stream is one closed-loop caller: a connection with its ops (parallel
// workloads), or the serial roam stream routed over one client per member.
type stream struct {
	w       *workload
	corp    *corpus.Corpus
	clients []*rpc.Client
	route   *router // nil on single-daemon workloads
	ops     []op
	tr      *tracer
	// updated marks (user, selected domain) pairs whose individual model
	// has been fine-tuned at least once; it spans warm-up and measurement.
	updated map[int]bool
	reqBase int
}

// run issues ops[lo:hi] one at a time, each waiting for its reply. With a
// nil acc (warm-up) it only maintains routing and update state.
func (s *stream) run(lo, hi int, a *acc) error {
	for i := lo; i < hi; i++ {
		o := &s.ops[i]
		user := userName(o.user)
		reqID := s.reqBase + i
		root := s.tr.begin("client.request", reqID, 0)
		sample := s.tr != nil && i%frameSampleEvery == 0
		if o.move {
			if err := s.move(o, user, reqID, root, sample, a); err != nil {
				return err
			}
		}
		cl := s.clients[0]
		if s.route != nil {
			cl = s.clients[s.route.owner(user)]
		}
		sp := s.tr.begin("rpc.transmit", reqID, root)
		start := time.Now()
		resp, err := cl.Transmit(user, o.text)
		lat := float64(time.Since(start)) / float64(time.Millisecond)
		s.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: transmit %s: %w", s.w.name, user, err)
		}
		sp = s.tr.begin("client.verify", reqID, root)
		s.observe(o, user, resp, lat, sample, a)
		s.tr.end(sp)
		s.tr.end(root)
	}
	return nil
}

// move attaches the op's user to its cell and checks the daemon's answer
// against the client-side routing view.
func (s *stream) move(o *op, user string, reqID int, root int32, sample bool, a *acc) error {
	if s.route == nil {
		return errors.New("bench: move on a single-daemon workload")
	}
	from := s.route.owner(user)
	sp := s.tr.begin("rpc.move", reqID, root)
	start := time.Now()
	resp, err := s.clients[from].Move(user, o.cell)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: move %s: %w", s.w.name, user, err)
	}
	to := s.route.cellOwner(o.cell)
	s.route.moved(user, o.cell)
	if a == nil {
		return nil
	}
	a.attempted++
	a.moveMs += ms
	if sample {
		a.frames = append(a.frames, framePair{req: rpc.Request{Op: rpc.OpMove, User: user, Cell: o.cell}, resp: resp})
	}
	h := resp.Handover
	switch {
	case !resp.OK || h == nil:
		a.fail("move %s: %q", user, resp.Error)
		foldResponse(&a.digest, "error", user, resp.Error)
		return nil
	case h.To != "node-"+strconv.Itoa(to) || h.Moved != (from != to):
		a.fail("move %s to cell %d: daemon says %s->%s moved=%v, client routing says node-%d->node-%d",
			user, o.cell, h.From, h.To, h.Moved, from, to)
	}
	if h.Moved {
		a.moveHandover = append(a.moveHandover, ms)
		a.models += int64(h.Models)
		a.migrated += h.MigratedBytes
	} else {
		a.moveNoop = append(a.moveNoop, ms)
	}
	foldResponse(&a.digest, "move", user, strconv.Itoa(o.cell), h.From, h.To,
		strconv.FormatBool(h.Moved), strconv.FormatInt(h.MigratedBytes, 10))
	return nil
}

// observe validates one transmit response and folds it into a.
func (s *stream) observe(o *op, user string, resp *rpc.Response, lat float64, sample bool, a *acc) {
	pair := -1
	if d := s.corp.Domain(resp.SelectedDomain); d != nil {
		pair = o.user*len(s.corp.Domains) + d.Index
	}
	hadUpdate := s.updated[pair]
	if resp.UpdateFired && pair >= 0 {
		s.updated[pair] = true
	}
	if a == nil {
		return
	}
	a.attempted++
	a.lats = append(a.lats, lat)
	a.latSum += lat
	if !resp.OK || resp.Shed || resp.Restored == "" {
		a.fail("transmit %s: ok=%v shed=%v restored=%q error=%q", user, resp.OK, resp.Shed, resp.Restored, resp.Error)
		foldResponse(&a.digest, "error", user, resp.Error)
		return
	}
	a.ok++
	a.accSum += wordAccuracy(resp.Restored, s.corp.Domains[o.msg.DomainIndex], o.msg.ConceptIDs)
	a.payload += float64(resp.PayloadBytes)
	a.simLat += resp.LatencyMs
	if resp.SelectedDomain == o.msg.DomainName {
		a.selCorrect++
	}
	if resp.Individual {
		a.individual++
	}
	if hadUpdate {
		a.eligible++
		if resp.Individual {
			a.eligInd++
		}
	}
	if resp.UpdateFired {
		a.updLats = append(a.updLats, lat)
	}
	if s.w.serial {
		foldResponse(&a.digest, "transmit", user, resp.Restored, resp.SelectedDomain,
			strconv.FormatUint(math.Float64bits(resp.Mismatch), 16),
			strconv.Itoa(resp.PayloadBytes),
			strconv.FormatUint(math.Float64bits(resp.LatencyMs), 16))
	}
	if sample {
		a.frames = append(a.frames, framePair{
			req:  rpc.Request{Op: rpc.OpTransmit, User: user, Text: o.text},
			resp: resp,
		})
	}
}

// slice is one stretch of the measured window between two yardstick
// bursts, with its timed values already divided by the machine's speed.
type slice struct {
	reqPerS     float64
	cpuUsPerReq float64
}

// repResult is everything one repetition measured.
type repResult struct {
	acc
	wallS        float64 // measured window, yardstick bursts excluded
	slices       []slice
	scaledLats   []float64 // ms, every transmit, times its slice's speed
	speed        float64   // median machine speed over the slices
	bootS, warmS float64
	cpuS         float64 // daemon user+sys over the window, all members
	clientCPUS   float64
	rssMB        float64
	before       *rpc.Stats // merged over members, at window start
	after        *rpc.Stats // at window end
	pingRTTUs    []float64  // traced runs only
	tracers      []*tracer  // traced runs only, one per stream
	streams      [][]op
}

// mergedStats scrapes every member's stats op and merges the counters.
func mergedStats(clients []*rpc.Client) (*rpc.Stats, error) {
	var merged *rpc.Stats
	for _, cl := range clients {
		st, err := cl.Stats()
		if err != nil {
			return nil, err
		}
		if merged == nil {
			merged = st
		} else {
			// Merge keeps the receiver's Serve percentiles; for a mesh the
			// slower member is the one a client waits for.
			if st.Serve != nil && merged.Serve != nil {
				merged.Serve.LatencyP50Ms = math.Max(merged.Serve.LatencyP50Ms, st.Serve.LatencyP50Ms)
				merged.Serve.LatencyP99Ms = math.Max(merged.Serve.LatencyP99Ms, st.Serve.LatencyP99Ms)
				merged.Serve.QueueWaitP99Ms = math.Max(merged.Serve.QueueWaitP99Ms, st.Serve.QueueWaitP99Ms)
			}
			merged.Merge(st)
		}
	}
	return merged, nil
}

// boot spawns the workload's daemon(s) and waits until every member
// answers a ping and, in a mesh, sees every other member alive.
func (e *env) boot(w *workload, tag string) ([]*daemon, error) {
	addrs, err := reservePorts(w.members)
	if err != nil {
		return nil, err
	}
	ds := make([]*daemon, 0, w.members)
	up := false
	defer func() {
		if !up {
			for _, d := range ds {
				d.kill()
			}
		}
	}()
	for i, addr := range addrs {
		args := w.daemonArgs
		if w.members > 1 {
			args = append([]string{"-peers", strings.Join(addrs, ","), "-mesh-index", strconv.Itoa(i)}, args...)
		}
		d, err := e.spawn(fmt.Sprintf("%s-%s-%d", w.name, tag, i), addr, args)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, d := range ds {
		if err := d.waitPing(deadline); err != nil {
			return nil, err
		}
	}
	if w.members > 1 {
		if err := meshReady(ds, deadline); err != nil {
			return nil, err
		}
	}
	up = true
	return ds, nil
}

// meshReady waits until each member believes every other member alive. A
// member that raced its peer's listener at boot marks it dead until the
// peer's own join lands; the only outside view of that is where a move
// lands, so a probe user (never part of the traffic) is moved to each
// other member's cell until the handover actually goes there.
func meshReady(ds []*daemon, deadline time.Time) error {
	for i, d := range ds {
		cl, err := rpc.Dial(d.addr)
		if err != nil {
			return err
		}
		for j := range ds {
			if j == i {
				continue
			}
			for {
				resp, err := cl.Move(fmt.Sprintf("bench-probe-%d-%d", i, j), j)
				if err != nil {
					cl.Close()
					return err
				}
				if resp.OK && resp.Handover != nil && resp.Handover.To == "node-"+strconv.Itoa(j) {
					break
				}
				if time.Now().After(deadline) {
					cl.Close()
					return fmt.Errorf("bench: mesh member %d never saw member %d alive", i, j)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		cl.Close()
	}
	return nil
}

// runRep runs one repetition: fresh daemon(s), warm-up, then the fixed
// measured request count, then a clean SIGTERM of every member.
func (e *env) runRep(w *workload, corp *corpus.Corpus, seed uint64, scale float64, traced bool, tag string) (*repResult, error) {
	res := &repResult{streams: genStreams(w, corp, seed, scale)}
	warm, _ := w.counts(scale)

	bootStart := time.Now()
	ds, err := e.boot(w, tag)
	if err != nil {
		return nil, err
	}
	res.bootS = time.Since(bootStart).Seconds()
	ok := false
	defer func() {
		if !ok {
			for _, d := range ds {
				d.kill()
			}
		}
	}()

	// One stats client per member, apart from the traffic connections.
	statsClients := make([]*rpc.Client, len(ds))
	for i, d := range ds {
		if statsClients[i], err = rpc.Dial(d.addr); err != nil {
			return nil, err
		}
		defer statsClients[i].Close()
	}

	epoch := time.Now()
	streams := make([]*stream, len(res.streams))
	for c, ops := range res.streams {
		s := &stream{w: w, corp: corp, ops: ops, updated: make(map[int]bool), reqBase: c * len(ops)}
		if traced {
			s.tr = newTracer(fmt.Sprintf("%s/wire/conn%d", w.name, c), epoch, 4*len(ops))
		}
		if w.serial {
			s.route = newRouter(len(ds))
			for _, d := range ds {
				cl, err := rpc.Dial(d.addr)
				if err != nil {
					return nil, err
				}
				defer cl.Close()
				s.clients = append(s.clients, cl)
			}
		} else {
			cl, err := rpc.Dial(ds[0].addr)
			if err != nil {
				return nil, err
			}
			defer cl.Close()
			s.clients = []*rpc.Client{cl}
		}
		streams[c] = s
	}

	// phase runs [lo,hi) of every stream concurrently and waits for all.
	phase := func(lo, hi int, accs []*acc) error {
		var wg sync.WaitGroup
		errs := make([]error, len(streams))
		for c, s := range streams {
			wg.Add(1)
			go func(c int, s *stream) {
				defer wg.Done()
				var a *acc
				if accs != nil {
					a = accs[c]
				}
				errs[c] = s.run(lo, hi, a)
			}(c, s)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	warmStart := time.Now()
	if err := phase(0, warm, nil); err != nil {
		return nil, err
	}
	res.warmS = time.Since(warmStart).Seconds()

	if res.before, err = mergedStats(statsClients); err != nil {
		return nil, err
	}
	accs := make([]*acc, len(streams))
	for c, s := range streams {
		accs[c] = &acc{lats: make([]float64, 0, len(s.ops)-warm)}
	}
	// The measured window: slicesPerRep slices of the workload, a yardstick
	// burst before, between and after them. A slice's speed is the mean of
	// the two bursts around it.
	cpuNow := func() (float64, error) {
		total := 0.0
		for _, d := range ds {
			c, err := d.cpuSeconds()
			if err != nil {
				return 0, err
			}
			total += c
		}
		return total, nil
	}
	oks := func() (n int) {
		for _, a := range accs {
			n += a.ok
		}
		return n
	}
	first, total := warm, len(streams[0].ops)-warm
	bursts := make([]float64, slicesPerRep+1)
	if bursts[0], err = e.yard.burst(); err != nil {
		return nil, err
	}
	type raw struct {
		lo, hi    int // op range per stream
		ok        int
		wallS     float64
		daemonCPU float64
	}
	raws := make([]raw, slicesPerRep)
	for i := range raws {
		r := &raws[i]
		r.lo, r.hi = first+total*i/slicesPerRep, first+total*(i+1)/slicesPerRep
		ok0, self0 := oks(), selfCPUSeconds()
		cpu0, err := cpuNow()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := phase(r.lo, r.hi, accs); err != nil {
			return nil, err
		}
		r.wallS = time.Since(start).Seconds()
		cpu1, err := cpuNow()
		if err != nil {
			return nil, err
		}
		r.daemonCPU, r.ok = cpu1-cpu0, oks()-ok0
		res.wallS += r.wallS
		res.cpuS += r.daemonCPU
		res.clientCPUS += selfCPUSeconds() - self0
		if bursts[i+1], err = e.yard.burst(); err != nil {
			return nil, err
		}
	}
	speeds := make([]float64, slicesPerRep)
	for i, r := range raws {
		sp := (bursts[i] + bursts[i+1]) / 2
		speeds[i] = sp
		res.slices = append(res.slices, slice{
			reqPerS:     ratio(float64(r.ok), r.wallS) / sp,
			cpuUsPerReq: ratio(r.daemonCPU*1e6, float64(r.ok)) * sp,
		})
		// A stream appends one latency per op, so its latencies of this
		// slice sit at the slice's op range, shifted by the warm-up.
		for _, a := range accs {
			for _, l := range a.lats[r.lo-first : r.hi-first] {
				res.scaledLats = append(res.scaledLats, l*sp)
			}
		}
	}
	res.speed = median(speeds)
	for _, d := range ds {
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.rssMB += rss
	}
	if res.after, err = mergedStats(statsClients); err != nil {
		return nil, err
	}
	res.acc = *accs[0]
	for _, a := range accs[1:] {
		res.acc.merge(a)
	}

	if traced {
		// The no-compute wire floor: ping round trips on an idle daemon.
		for i := 0; i < 2000; i++ {
			t0 := time.Now()
			if err := statsClients[0].Ping(); err != nil {
				return nil, err
			}
			res.pingRTTUs = append(res.pingRTTUs, float64(time.Since(t0))/float64(time.Microsecond))
		}
		for _, s := range streams {
			res.tracers = append(res.tracers, s.tr)
		}
	}

	// Members leave highest index first, so member 0 (the warm one) drains
	// last with nobody left to hand off to.
	ok = true
	var termErr error
	for i := len(ds) - 1; i >= 0; i-- {
		if err := ds[i].terminate(); err != nil && termErr == nil {
			termErr = err
		}
	}
	return res, termErr
}
