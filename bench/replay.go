package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/rpc"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/text"
)

// This file is the in-process half of the traced run (S3 in the README):
// the daemon cannot be instrumented from outside, so the workload's own
// message stream is pushed through the public stage functions, in
// pipeline order, on a core.System built from the same store and seed,
// with a span around each call. A twin system serves the same stream
// through System.TransmitText, and the stage spans must add up to it.

// loadStore reads the pretrained codecs, one per corpus domain.
func loadStore(dir string, corp *corpus.Corpus) ([]*semantic.Codec, error) {
	out := make([]*semantic.Codec, len(corp.Domains))
	for i, d := range corp.Domains {
		f, err := os.Open(filepath.Join(dir, d.Name+".kbm"))
		if err != nil {
			return nil, err
		}
		out[i], err = semantic.ReadCodec(f, corp)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: %s.kbm: %w", d.Name, err)
		}
	}
	return out, nil
}

// newReplaySystem mirrors what edged.New builds for member idx of w.
func newReplaySystem(w *workload, idx int, store []*semantic.Codec) (*core.System, error) {
	cfg := core.Config{
		Selector:   core.SelectorSticky,
		SNRdB:      12,
		PinGeneral: true,
		Seed:       systemSeed,
		Pretrained: store,
	}
	for i := 0; i+1 < len(w.daemonArgs); i += 2 {
		if w.daemonArgs[i] == "-buffer-threshold" {
			n, err := strconv.Atoi(w.daemonArgs[i+1])
			if err != nil {
				return nil, err
			}
			cfg.BufferThreshold = n
		}
	}
	if w.members > 1 {
		cfg.SenderName = "node-" + strconv.Itoa(idx)
		cfg.PerUserNoise = true
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := sys.Sender.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	if _, err := sys.Receiver.Prefetch(sys.Corpus.Names()); err != nil {
		return nil, err
	}
	return sys, nil
}

// replayResult holds the stage spans' sums and samples.
type replayResult struct {
	requests, tokens int
	stageUs          map[string]float64 // summed span time per stage
	transmitUs       []float64          // twin TransmitText spans
	transmitSumUs    float64
	updateMs         []float64 // System.ProcessUpdate spans
	symbols          int
	exportUs         []float64
	importUs         []float64
	handoffFrames    []framePair
	kbLoadMs         float64
	semEncUs         float64
	semDecUs         float64
	cacheGetNs       float64
	cachePutNs       float64
}

// stages are the pipeline steps whose spans must add up to the twin's
// transmit span (tokenize runs in the daemon before TransmitText, and
// edge.acquire is an extra direct call, so neither is part of the sum).
var stages = []string{"selection.select", "edge.encode", "channel.send", "edge.decode", "edge.record", "fl.update"}

// interleave merges the connections' streams in round-robin issue order.
func interleave(streams [][]op, limit int) []*op {
	var out []*op
	for i := 0; len(out) < limit; i++ {
		before := len(out)
		for c := range streams {
			if i < len(streams[c]) && len(out) < limit {
				out = append(out, &streams[c][i])
			}
		}
		if len(out) == before {
			break
		}
	}
	return out
}

// replay runs the stage replay and the direct layer measurements.
func (e *env) replay(w *workload, corp *corpus.Corpus, streams [][]op) (*replayResult, error) {
	res := &replayResult{stageUs: make(map[string]float64)}
	t0 := time.Now()
	store, err := loadStore(e.kbDir, corp)
	if err != nil {
		return nil, err
	}
	res.kbLoadMs = float64(time.Since(t0)) / float64(time.Millisecond)

	staged := make([]*core.System, w.members)
	twins := make([]*core.System, w.members)
	for i := range staged {
		if staged[i], err = newReplaySystem(w, i, store); err != nil {
			return nil, err
		}
		if twins[i], err = newReplaySystem(w, i, store); err != nil {
			return nil, err
		}
	}
	// The staged side drives its own selector and channel, configured as
	// core.NewSystem configures the daemon's (sticky over naive Bayes;
	// 3-bit quantizer, Hamming(7,4), BPSK, AWGN at 12 dB).
	nb := selection.TrainNaiveBayes(corp, 150, systemSeed^0xbead)
	sels := map[int]*selection.Sticky{}
	link := channel.FeatureLink{
		Quant: channel.Quantizer{Bits: 3, Lo: -1, Hi: 1},
		Code:  channel.Hamming74{},
		Mod:   channel.BPSK{},
		Ch:    &channel.AWGN{SNRdB: 12, Rng: mat.NewRNG(systemSeed ^ 0x5eed)},
	}
	var linkScratch channel.TxScratch
	var route *router
	if w.members > 1 {
		route = newRouter(w.members)
	}

	ops := interleave(streams, w.replayCap)
	tr := newTracer(w.name+"/replay", time.Now(), 12*len(ops))
	traceLog = append(traceLog, tr)
	timed := func(name string, req int, parent int32, f func()) time.Duration {
		sp := tr.begin(name, req, parent)
		f()
		return tr.end(sp)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	for i, o := range ops {
		user := userName(o.user)
		owner := 0
		if route != nil {
			if o.move {
				from, to := route.owner(user), route.cellOwner(o.cell)
				route.moved(user, o.cell)
				if from != to {
					if err := res.handover(tr, i, user, staged[from], staged[to], false); err != nil {
						return nil, err
					}
					if err := res.handover(tr, i, user, twins[from], twins[to], true); err != nil {
						return nil, err
					}
				}
			}
			owner = route.owner(user)
		}
		sys := staged[owner]
		sel := sels[o.user]
		if sel == nil {
			sel = selection.NewSticky(nb, 0)
			sels[o.user] = sel
		}

		root := tr.begin("core.pipeline", i, 0)
		var words []string
		res.stageUs["text.tokenize"] += us(timed("text.tokenize", i, root, func() { words = text.Tokenize(o.text) }))
		var selected int
		res.stageUs["selection.select"] += us(timed("selection.select", i, root, func() { selected = sel.Select(words) }))
		domain := corp.Domains[selected].Name
		res.stageUs["edge.acquire"] += us(timed("edge.acquire", i, root, func() { _, err = sys.Sender.AcquireCodec(domain, user) }))
		if err != nil {
			return nil, err
		}
		sc := mat.GetScratch()
		var enc edge.EncodeResult
		res.stageUs["edge.encode"] += us(timed("edge.encode", i, root, func() { enc, err = sys.Sender.Encode(sc, domain, user, words) }))
		if err != nil {
			return nil, err
		}
		rx := sc.Mat(enc.Features.Rows, enc.Model.Codec.FeatureDim())
		var stats channel.LinkStats
		res.stageUs["channel.send"] += us(timed("channel.send", i, root, func() {
			stats = link.SendFlatScratch(&linkScratch, rx.Data, enc.Features.Data)
		}))
		res.symbols += stats.Symbols
		res.stageUs["edge.decode"] += us(timed("edge.decode", i, root, func() { _, err = sys.Receiver.Decode(sc, domain, user, rx) }))
		if err != nil {
			return nil, err
		}
		var ready bool
		res.stageUs["edge.record"] += us(timed("edge.record", i, root, func() {
			tx, r, rerr := sys.Sender.RecordTransaction(sc, domain, user, words, &enc)
			ready, err = r, rerr
			sel.Feedback(1 - tx.Mismatch())
		}))
		if err != nil {
			return nil, err
		}
		if ready {
			d := timed("fl.update", i, root, func() { _, err = sys.ProcessUpdate(domain, user) })
			if err != nil {
				return nil, err
			}
			res.stageUs["fl.update"] += us(d)
			res.updateMs = append(res.updateMs, float64(d)/float64(time.Millisecond))
		}
		mat.PutScratch(sc)
		tr.end(root)

		d := timed("core.transmit", i, 0, func() { _, err = twins[owner].TransmitText(user, words) })
		if err != nil {
			return nil, err
		}
		res.transmitUs = append(res.transmitUs, us(d))
		res.transmitSumUs += us(d)
		res.requests++
		res.tokens += len(words)
	}

	res.directSemantic(store, ops)
	if err := res.directCache(store); err != nil {
		return nil, err
	}
	return res, nil
}

// handover moves user between two replay systems the way mesh.MoveUser
// does: export, import on the target, drop on the source. The twin's
// handover (full state: models, belief, buffers, noise sequence) is the
// one that is timed and turned into a wire frame.
func (r *replayResult) handover(tr *tracer, req int, user string, from, to *core.System, timed bool) error {
	var exp *core.UserExport
	var err error
	sp := tr.begin("core.handover_export", req, 0)
	exp, err = from.ExportUserForHandover(user)
	d := tr.end(sp)
	if err != nil {
		return err
	}
	if timed {
		r.exportUs = append(r.exportUs, float64(d)/float64(time.Microsecond))
	}
	sp = tr.begin("core.handover_import", req, 0)
	err = to.ImportUserFromHandover(exp)
	d = tr.end(sp)
	if err != nil {
		return err
	}
	from.DropUserAfterHandover(exp)
	if timed {
		r.importUs = append(r.importUs, float64(d)/float64(time.Microsecond))
		r.handoffFrames = append(r.handoffFrames, framePair{
			req:  rpc.Request{Op: rpc.OpHandoverPush, Handoff: handoffPayload(exp)},
			resp: &rpc.Response{OK: true},
		})
	}
	return nil
}

// handoffPayload renders an export in the v2 wire form a mesh member
// pushes to the new owner.
func handoffPayload(exp *core.UserExport) *rpc.HandoffPayload {
	h := &rpc.HandoffPayload{User: exp.User, FromNode: "node-0", NoiseSeq: exp.NoiseSeq, Belief: exp.Belief}
	for _, m := range exp.Sender {
		h.Models = append(h.Models, rpc.HandoffModel{Side: "sender",
			Model: rpc.ModelPayload{Domain: m.Domain, User: m.User, Version: m.Version, Params: m.Params}})
	}
	for _, m := range exp.Receiver {
		h.Models = append(h.Models, rpc.HandoffModel{Side: "receiver",
			Model: rpc.ModelPayload{Domain: m.Domain, User: m.User, Version: m.Version, Params: m.Params}})
	}
	for _, b := range exp.Buffers {
		wb := rpc.BufferState{Domain: b.Domain}
		for _, tx := range b.Txs {
			wb.Txs = append(wb.Txs, rpc.TxState{Surfaces: tx.SurfaceIDs, Concepts: tx.ConceptIDs, Decoded: tx.Decoded})
		}
		h.Buffers = append(h.Buffers, wb)
	}
	return h
}

// directSemantic times the codec kernels alone on the workload's own
// messages: the general model of each message's true domain.
func (r *replayResult) directSemantic(store []*semantic.Codec, ops []*op) {
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	var encT, decT time.Duration
	tokens := 0
	for _, o := range ops {
		codec := store[o.msg.DomainIndex]
		sc.Reset()
		t0 := time.Now()
		feats := codec.EncodeWordsInto(sc, o.msg.Words)
		t1 := time.Now()
		dst := sc.Ints(feats.Rows)
		codec.DecodeFeaturesInto(sc, feats, dst)
		decT += time.Since(t1)
		encT += t1.Sub(t0)
		tokens += len(o.msg.Words)
	}
	if tokens > 0 {
		r.semEncUs = float64(encT) / float64(time.Microsecond) / float64(tokens)
		r.semDecUs = float64(decT) / float64(time.Microsecond) / float64(tokens)
	}
}

// directCache times Get hits and evicting Puts on a cache sized like an
// edge server's: every general model pinned plus eight individual slots.
func (r *replayResult) directCache(store []*semantic.Codec) error {
	var total int64
	models := make([]*kb.Model, len(store))
	for i, c := range store {
		models[i] = &kb.Model{Key: kb.GeneralKey(c.Domain().Name, kb.RoleCodec), Version: 1, Codec: c}
		total += models[i].SizeBytes()
	}
	c, err := cache.New(total+8*(total/int64(len(store))), cache.NewLRU())
	if err != nil {
		return err
	}
	for _, m := range models {
		if err := c.Put(m, true); err != nil {
			return err
		}
	}
	const gets, puts = 200000, 20000
	individuals := make([]*kb.Model, puts)
	for i := range individuals {
		g := models[i%len(models)]
		individuals[i] = &kb.Model{Key: kb.UserKey(g.Key.Domain, "c"+strconv.Itoa(i), kb.RoleCodec), Codec: g.Codec}
	}
	// The first eight Puts fill the free slots; the rest each evict.
	for _, m := range individuals[:8] {
		if err := c.Put(m, false); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, m := range individuals[8:] {
		if err := c.Put(m, false); err != nil {
			return err
		}
	}
	r.cachePutNs = float64(time.Since(t0)) / float64(puts-8)
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		c.Get(models[i%len(models)].Key)
	}
	r.cacheGetNs = float64(time.Since(t0)) / gets
	return nil
}

// frameCosts is the rpc layer measured on the run's own frames.
type frameCosts struct {
	reqEncodeUs, reqDecodeUs   float64
	respEncodeUs, respDecodeUs float64
	reqBytes, respBytes        float64
	allocsPerRoundtrip         float64
}

// weighted averages two frame populations by how many frames of each the
// run put on the wire, so a few large peer-to-peer frames count in
// proportion next to the many small client frames.
func weighted(a frameCosts, na float64, b frameCosts, nb float64) frameCosts {
	if na+nb == 0 {
		return frameCosts{}
	}
	mix := func(x, y float64) float64 { return (x*na + y*nb) / (na + nb) }
	return frameCosts{
		reqEncodeUs: mix(a.reqEncodeUs, b.reqEncodeUs), reqDecodeUs: mix(a.reqDecodeUs, b.reqDecodeUs),
		respEncodeUs: mix(a.respEncodeUs, b.respEncodeUs), respDecodeUs: mix(a.respDecodeUs, b.respDecodeUs),
		reqBytes: mix(a.reqBytes, b.reqBytes), respBytes: mix(a.respBytes, b.respBytes),
		allocsPerRoundtrip: mix(a.allocsPerRoundtrip, b.allocsPerRoundtrip),
	}
}

// measureFrames pushes each sampled request/response pair through the
// same framing calls the client and daemon make, against memory.
func measureFrames(frames []framePair) (frameCosts, error) {
	var fc frameCosts
	if len(frames) == 0 {
		return fc, nil
	}
	var buf bytes.Buffer
	var t [4]time.Duration
	var reqB, respB int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range frames {
		version := byte(rpc.Version)
		if rpc.IsMeshOp(frames[i].req.Op) {
			version = rpc.Version2
		}
		buf.Reset()
		t0 := time.Now()
		if err := rpc.WriteV(&buf, version, &frames[i].req); err != nil {
			return fc, err
		}
		t1 := time.Now()
		reqB += buf.Len()
		if _, _, err := rpc.ReadRequestV(&buf); err != nil {
			return fc, err
		}
		t2 := time.Now()
		buf.Reset()
		if err := rpc.WriteV(&buf, version, frames[i].resp); err != nil {
			return fc, err
		}
		t3 := time.Now()
		respB += buf.Len()
		if _, _, err := rpc.ReadResponseV(&buf); err != nil {
			return fc, err
		}
		t4 := time.Now()
		t[0] += t1.Sub(t0)
		t[1] += t2.Sub(t1)
		t[2] += t3.Sub(t2)
		t[3] += t4.Sub(t3)
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(frames))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	fc.reqEncodeUs, fc.reqDecodeUs, fc.respEncodeUs, fc.respDecodeUs = us(t[0]), us(t[1]), us(t[2]), us(t[3])
	fc.reqBytes, fc.respBytes = float64(reqB)/n, float64(respB)/n
	fc.allocsPerRoundtrip = float64(ms1.Mallocs-ms0.Mallocs) / n
	return fc, nil
}
