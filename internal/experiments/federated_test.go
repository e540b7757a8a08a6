package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

var (
	fixOnce sync.Once
	fixCorp *corpus.Corpus
	fixGen  *semantic.Codec
)

// fixtures returns the corpus and a small pretrained "it" codec: the model
// the FedAvg, lossy-sync and restamp tests start from.
func fixtures(t *testing.T) (*corpus.Corpus, *semantic.Codec) {
	t.Helper()
	fixOnce.Do(func() {
		fixCorp = corpus.Build()
		fixGen = semantic.Pretrain(fixCorp.Domain("it"), fixCorp, semantic.Config{
			EmbedDim: 12, FeatureDim: 6, HiddenDim: 16,
			Epochs: 3, Sentences: 400, Seed: 7,
		})
	})
	return fixCorp, fixGen
}

// donorSets builds per-donor idiolect example sets for the fixture domain.
func donorSets(corp *corpus.Corpus, d *corpus.Domain, donors, sentences int, seed uint64) [][]semantic.Example {
	rng := mat.NewRNG(seed)
	out := make([][]semantic.Example, donors)
	for i := range out {
		idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
		gen := corpus.NewGenerator(corp, rng.Split())
		var exs []semantic.Example
		for _, m := range gen.Batch(d.Index, sentences, idio) {
			exs = append(exs, semantic.ExamplesFromMessage(d, m)...)
		}
		out[i] = exs
	}
	return out
}

// TestSubFromMatchesAXPY: subFrom on a copy of the old values writes the
// bits mat.AXPY(after, −1, before) writes on a copy of the new ones — the
// delta FedAvg and the lossy syncs take.
func TestSubFromMatchesAXPY(t *testing.T) {
	random := func(seed uint64) *nn.ParamSet {
		rng := mat.NewRNG(seed)
		ps := &nn.ParamSet{}
		for _, shape := range [][2]int{{3, 4}, {1, 4}} {
			m := mat.NewDense(shape[0], shape[1])
			m.Randomize(rng, 1)
			ps.Add(fmt.Sprintf("t%dx%d", shape[0], shape[1]), m)
		}
		return ps
	}
	before, after := random(6), random(7)
	want := after.Clone()
	for i, p := range want.Params {
		mat.AXPY(p.M.Data, -1, before.Params[i].M.Data)
	}
	got := before.Clone()
	subFrom(got, after)
	for i, p := range want.Params {
		for j, v := range p.M.Data {
			if math.Float64bits(got.Params[i].M.Data[j]) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: subFrom %v, AXPY %v", p.Name, j, got.Params[i].M.Data[j], v)
			}
		}
	}
}

func TestCodecDelta(t *testing.T) {
	_, gen := fixtures(t)
	a := gen.Clone()
	b := gen.Clone()
	b.Params().ByName(semantic.ParamDecW).Data[0] += 2
	delta := codecDelta(b, a)
	if got := delta.ByName(semantic.ParamDecW).Data[0]; got != 2 {
		t.Fatalf("delta = %v, want 2", got)
	}
	// All other entries zero.
	if mat.MaxAbs(delta.ByName(semantic.ParamEncW).Data) != 0 {
		t.Fatal("unexpected encoder delta")
	}
}

func TestApplyAverageDelta(t *testing.T) {
	_, gen := fixtures(t)
	base := gen.Clone()
	d1 := base.Params().ZeroClone()
	d2 := base.Params().ZeroClone()
	d1.ByName(semantic.ParamDecB).Data[0] = 4
	d2.ByName(semantic.ParamDecB).Data[0] = 2
	orig := base.Params().ByName(semantic.ParamDecB).Data[0]
	if err := applyAverageDelta(base, []*nn.ParamSet{d1, d2}); err != nil {
		t.Fatal(err)
	}
	got := base.Params().ByName(semantic.ParamDecB).Data[0]
	if got != orig+3 {
		t.Fatalf("after FedAvg = %v, want %v", got, orig+3)
	}
	if err := applyAverageDelta(base, nil); err == nil {
		t.Fatal("empty aggregation accepted")
	}
}

func TestRunFederatedImprovesColdStart(t *testing.T) {
	corp, gen := fixtures(t)
	d := corp.Domain("it")
	donors := donorSets(corp, d, 8, 40, 77)

	improved, err := RunFederated(gen, donors, FederatedConfig{Rounds: 3, LocalEpochs: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// A brand-new user with a fresh idiolect: the improved general model
	// must handle their rare-synonym vocabulary better than the stock one.
	rng := mat.NewRNG(1234)
	var cold []semantic.Example
	newIdio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	newGen := corpus.NewGenerator(corp, rng.Split())
	for _, m := range newGen.Batch(d.Index, 80, newIdio) {
		cold = append(cold, semantic.ExamplesFromMessage(d, m)...)
	}
	stockAcc := gen.Evaluate(cold)
	fedAcc := improved.Evaluate(cold)
	if fedAcc <= stockAcc {
		t.Fatalf("FedAvg did not improve cold start: stock %v fed %v", stockAcc, fedAcc)
	}

	// Generic traffic must not degrade (no catastrophic forgetting).
	var generic []semantic.Example
	for _, m := range newGen.Batch(d.Index, 80, nil) {
		generic = append(generic, semantic.ExamplesFromMessage(d, m)...)
	}
	if improved.Evaluate(generic) < gen.Evaluate(generic)-0.03 {
		t.Fatalf("FedAvg degraded generic traffic: %v -> %v",
			gen.Evaluate(generic), improved.Evaluate(generic))
	}

	// The input general model must be untouched.
	if gen.Evaluate(cold) != stockAcc {
		t.Fatal("RunFederated mutated its input codec")
	}
}

func TestRunFederatedValidation(t *testing.T) {
	_, gen := fixtures(t)
	if _, err := RunFederated(gen, nil, FederatedConfig{}); err == nil {
		t.Fatal("no donors accepted")
	}
}

func TestClipToNorm(t *testing.T) {
	_, gen := fixtures(t)
	delta := gen.Params().ZeroClone()
	delta.ByName(semantic.ParamDecB).Data[0] = 3
	delta.ByName(semantic.ParamDecB).Data[1] = 4 // norm 5
	clipToNorm(delta, 1)
	norm := 0.0
	for _, p := range delta.Params {
		for _, v := range p.M.Data {
			norm += v * v
		}
	}
	if norm > 1.0001 {
		t.Fatalf("clipped norm^2 = %v, want <= 1", norm)
	}
	// Already-small deltas pass through unchanged.
	small := gen.Params().ZeroClone()
	small.ByName(semantic.ParamDecB).Data[0] = 0.1
	clipToNorm(small, 1)
	if small.ByName(semantic.ParamDecB).Data[0] != 0.1 {
		t.Fatal("clip modified an in-bounds delta")
	}
}

func TestDPFederatedStillImprovesColdStart(t *testing.T) {
	corp, gen := fixtures(t)
	d := corp.Domain("it")
	donors := donorSets(corp, d, 8, 40, 177)
	improved, err := RunFederated(gen, donors, FederatedConfig{
		Rounds: 3, LocalEpochs: 2, Seed: 9,
		DP: DPConfig{ClipNorm: 3, NoiseMultiplier: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(888)
	var cold []semantic.Example
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	g := corpus.NewGenerator(corp, rng.Split())
	for _, m := range g.Batch(d.Index, 80, idio) {
		cold = append(cold, semantic.ExamplesFromMessage(d, m)...)
	}
	if improved.Evaluate(cold) <= gen.Evaluate(cold) {
		t.Fatalf("DP FedAvg did not improve cold start: %v -> %v",
			gen.Evaluate(cold), improved.Evaluate(cold))
	}
}

func TestDPNoiseDestroysUtilityWhenHuge(t *testing.T) {
	corp, gen := fixtures(t)
	d := corp.Domain("it")
	donors := donorSets(corp, d, 4, 20, 178)
	wrecked, err := RunFederated(gen, donors, FederatedConfig{
		Rounds: 2, LocalEpochs: 1, Seed: 9,
		DP: DPConfig{ClipNorm: 3, NoiseMultiplier: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(889)
	var generic []semantic.Example
	g := corpus.NewGenerator(corp, rng.Split())
	for _, m := range g.Batch(d.Index, 60, nil) {
		generic = append(generic, semantic.ExamplesFromMessage(d, m)...)
	}
	// Sanity check on the mechanism: absurd noise must visibly damage the
	// model (i.e. the noise is really being injected).
	if wrecked.Evaluate(generic) >= gen.Evaluate(generic)-0.05 {
		t.Fatalf("huge DP noise had no effect: %v vs %v",
			wrecked.Evaluate(generic), gen.Evaluate(generic))
	}
}

// restampServer is an edge serving the fixture's "it" general model, with
// room for six models.
func restampServer(t *testing.T) *edge.Server {
	t.Helper()
	_, gen := fixtures(t)
	cloud := kb.NewRegistry()
	m := &kb.Model{Key: kb.GeneralKey("it", kb.RoleCodec), Version: 1, Codec: gen}
	cloud.Put(m)
	srv, err := edge.New(edge.Config{
		Name:            "fedavg-test",
		CacheCapacity:   6 * m.SizeBytes(),
		BufferThreshold: 24,
	}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// probeRows is a fixed matrix of 300 random feature rows: enough that any
// real change to a decoder moves the argmax of some, few enough that the
// server's memo holds nearly all of them at once.
func probeRows(cols int) *mat.Dense {
	rng := mat.NewRNG(31)
	d := mat.NewDense(300, cols)
	for i := range d.Data {
		d.Data[i] = 2*rng.Float64() - 1
	}
	return d
}

// serverDecode decodes feats on srv for u1's "it" model through the
// server's memo; directDecode decodes them with the codec srv serves,
// bypassing the memo.
func serverDecode(t *testing.T, srv *edge.Server, feats *mat.Dense) []int {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	res, err := srv.DecodeConcepts(sc, "it", "u1", feats)
	if err != nil {
		t.Fatal(err)
	}
	return append([]int(nil), res.Concepts...)
}

func directDecode(t *testing.T, srv *edge.Server, feats *mat.Dense) []int {
	t.Helper()
	acq, err := srv.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	out := make([]int, feats.Rows)
	acq.Model.Codec.DecodeFeaturesInto(sc, feats, out)
	return out
}

// senderView returns what srv's sender side makes of words for u1's "it"
// model — the encoded features and the decoder-copy concepts, both read
// from the served codec's sender table — and directSender the same from
// the per-token kernels of the codec srv serves.
func senderView(t *testing.T, srv *edge.Server, words []string) ([]float64, []int) {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	enc, err := srv.Encode(sc, "it", "u1", words)
	if err != nil {
		t.Fatal(err)
	}
	tx, _, err := srv.RecordTransaction(sc, "it", "u1", words, &enc)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), enc.Features.Data...), tx.Decoded
}

func directSender(t *testing.T, srv *edge.Server, words []string) ([]float64, []int) {
	t.Helper()
	acq, err := srv.AcquireCodec("it", "u1")
	if err != nil {
		t.Fatal(err)
	}
	c := acq.Model.Codec
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	feats := make([]float64, len(words)*c.FeatureDim())
	concepts := make([]int, len(words))
	for i, w := range words {
		row := feats[i*c.FeatureDim() : (i+1)*c.FeatureDim()]
		c.EncodeSurfaceID(c.Domain().SurfaceID(w), row)
		c.DecodeFeaturesInto(sc, sc.Wrap(1, len(row), row), concepts[i:i+1])
	}
	return feats, concepts
}

// TestFedAvgWritersRestamp runs edge's TestEveryWriterRestamps table on the
// FedAvg writers, which live here: each writes a served codec's weights
// through the `Params()` door, so a server's decode memo warmed on the old
// weights must answer with the new ones, and the codec's sender table must
// be rebuilt on them.
func TestFedAvgWritersRestamp(t *testing.T) {
	corp, _ := fixtures(t)
	userKey := kb.UserKey("it", "u1", kb.RoleCodec)
	// tuned is a second edge whose u1 model has been fine-tuned: the source
	// of deltas that differ from srv's weights.
	tuned := func(t *testing.T, seed uint64) *edge.Server {
		donor := restampServer(t)
		rng := mat.NewRNG(seed)
		idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
		gen := corpus.NewGenerator(corp, rng.Split())
		for i := 0; i < 24; i++ {
			m := gen.Message(corp.Domain("it").Index, idio)
			if _, _, err := donor.RecordTransaction(nil, "it", "u1", m.Words, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := donor.RunUpdate("it", "u1", fl.UpdateConfig{Epochs: 3, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		return donor
	}
	writers := []struct {
		name  string
		write func(t *testing.T, srv *edge.Server)
	}{
		{"applyAverageDelta", func(t *testing.T, srv *edge.Server) {
			served, err := srv.AcquireCodec("it", "u1")
			if err != nil {
				t.Fatal(err)
			}
			donor, err := tuned(t, 65).AcquireCodec("it", "u1")
			if err != nil {
				t.Fatal(err)
			}
			delta := codecDelta(donor.Model.Codec, served.Model.Codec)
			// codecDelta opened the door too; decode between it and the
			// write so only applyAverageDelta's own stamp can save the test.
			serverDecode(t, srv, probeRows(served.Model.Codec.FeatureDim()))
			if err := applyAverageDelta(served.Model.Codec, []*nn.ParamSet{delta}); err != nil {
				t.Fatal(err)
			}
		}},
		{"RunFederated/DP-noise", func(t *testing.T, srv *edge.Server) {
			served, err := srv.AcquireCodec("it", "u1")
			if err != nil {
				t.Fatal(err)
			}
			gen := corpus.NewGenerator(corp, mat.NewRNG(66))
			d := corp.Domain("it")
			var examples []semantic.Example
			for _, m := range gen.Batch(d.Index, 30, nil) {
				examples = append(examples, semantic.ExamplesFromMessage(d, m)...)
			}
			global, err := RunFederated(served.Model.Codec, [][]semantic.Example{examples}, FederatedConfig{
				Rounds: 1, LocalEpochs: 1, Seed: 3, DP: DPConfig{ClipNorm: 1, NoiseMultiplier: 0.5},
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.Cache().Remove(userKey)
			if err := srv.Cache().Put(&kb.Model{Key: userKey, Version: 1, Codec: global}, false); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			srv := restampServer(t)
			if _, _, err := srv.Personalize("it", "u1"); err != nil {
				t.Fatal(err)
			}
			acq, err := srv.AcquireCodec("it", "u1")
			if err != nil {
				t.Fatal(err)
			}
			feats := probeRows(acq.Model.Codec.FeatureDim())
			old := serverDecode(t, srv, feats)
			if got := serverDecode(t, srv, feats); !reflect.DeepEqual(got, old) {
				t.Fatal("warm decode differs from cold decode")
			}
			// (Not necessarily every row: five of them in one set evict one.)
			if st := srv.DecodeMemoStats(); st.Hits*10 < uint64(feats.Rows)*9 {
				t.Fatalf("the memo is not warm before the write: %+v", st)
			}
			// The whole lexicon plus an out-of-domain word: every table row.
			words := []string{"notaword"}
			for _, c := range corp.Domain("it").Concepts {
				words = append(words, c.Surfaces...)
			}
			oldFeats, oldCopy := senderView(t, srv, words) // builds the sender table
			w.write(t, srv)
			fresh := directDecode(t, srv, feats)
			if reflect.DeepEqual(fresh, old) {
				t.Fatal("the write changed no decode: the case proves nothing")
			}
			if got := serverDecode(t, srv, feats); !reflect.DeepEqual(got, fresh) {
				t.Fatal("the server decoded with answers memoized before the write")
			}
			freshFeats, freshCopy := directSender(t, srv, words)
			gotFeats, gotCopy := senderView(t, srv, words)
			if !reflect.DeepEqual(gotFeats, freshFeats) || !reflect.DeepEqual(gotCopy, freshCopy) {
				t.Fatal("the server's sender side read a table built before the write")
			}
			if reflect.DeepEqual(oldFeats, freshFeats) && reflect.DeepEqual(oldCopy, freshCopy) {
				t.Fatal("the write moved nothing the sender table holds: the case proves nothing")
			}
		})
	}
}
