package edge

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/semantic"
)

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

// serverDecode decodes feats on srv for (domain, user) — through the
// server's memo — and returns a copy of the concepts.
func serverDecode(t *testing.T, srv *Server, domain, user string, feats *mat.Dense) []int {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	res, err := srv.DecodeConcepts(sc, domain, user, feats)
	if err != nil {
		t.Fatal(err)
	}
	return append([]int(nil), res.Concepts...)
}

// directDecode decodes feats with the model srv serves for (domain, user),
// bypassing the memo.
func directDecode(t *testing.T, srv *Server, domain, user string, feats *mat.Dense) []int {
	t.Helper()
	acq, err := srv.AcquireCodec(domain, user)
	if err != nil {
		t.Fatal(err)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	out := make([]int, feats.Rows)
	acq.Model.Codec.DecodeFeaturesInto(sc, feats, out)
	return out
}

// senderView returns what the server's sender side makes of words for
// (domain, user) — the encoded features and the decoder-copy concepts, both
// read from the served codec's sender table — and directSender the same from
// the per-token kernels of the model the server serves.
func senderView(t *testing.T, srv *Server, domain, user string, words []string) ([]float64, []int) {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	enc, err := srv.Encode(sc, domain, user, words)
	if err != nil {
		t.Fatal(err)
	}
	tx, _, err := srv.RecordTransaction(sc, domain, user, words, &enc)
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), enc.Features.Data...), tx.Decoded
}

func directSender(t *testing.T, srv *Server, domain, user string, words []string) ([]float64, []int) {
	t.Helper()
	acq, err := srv.AcquireCodec(domain, user)
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

// TestEveryWriterRestamps is the table the memo's validity rests on: for
// every call site outside package semantic that writes a served codec's
// weights (the `Params()` / `DecoderParams()` doors of fl.ApplyUpdate and
// InstallUserModel, plus the fine-tune behind RunUpdate), warm the server's
// memo on the old weights, write, and require the server's decode to equal a fresh un-memoized
// decode of the new ones — and to differ from the old answer, so a stale
// memo could not pass. The codec's sender table hangs on the same stamp,
// so the same writers must orphan it: what the server encodes and
// decoder-copies after the write must equal the per-token kernels on the
// new weights, and the features must have moved.
// Package semantic's own writers run the same table in its memo_test.go,
// and experiments' FedAvg writers in TestFedAvgWritersRestamp.
func TestEveryWriterRestamps(t *testing.T) {
	corp, _ := cloudFixture(t)
	// donor is a second edge whose u1 model has been fine-tuned: the source
	// of updates and exports that differ from srv's weights.
	tuned := func(t *testing.T, seed uint64) *Server {
		donor := newServer(t, 6, nil)
		personalizeOn(t, donor, corp, seed)
		return donor
	}
	writers := []struct {
		name  string
		write func(t *testing.T, srv *Server)
	}{
		{"RunUpdate/FineTune", func(t *testing.T, srv *Server) {
			personalizeOn(t, srv, corp, 61)
		}},
		{"ApplyRemoteUpdate/fl.ApplyUpdate", func(t *testing.T, srv *Server) {
			donor := newServer(t, 6, nil)
			rng := mat.NewRNG(62)
			idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
			gen := corpus.NewGenerator(corp, rng.Split())
			donor.bufferThreshold = 24
			for i := 0; i < 24; i++ {
				if _, _, err := donor.RecordTransaction(nil, "it", "u1", gen.Message(corp.Domain("it").Index, idio).Words, nil); err != nil {
					t.Fatal(err)
				}
			}
			upd, err := donor.RunUpdate("it", "u1", fl.UpdateConfig{Epochs: 6, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.ApplyRemoteUpdate(upd); err != nil {
				t.Fatal(err)
			}
		}},
		{"InstallUserModel", func(t *testing.T, srv *Server) {
			exp, params := exportU1(t, tuned(t, 64))
			if err := srv.InstallUserModel(exp, params); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			srv := newServer(t, 6, nil)
			if _, _, err := srv.Personalize("it", "u1"); err != nil {
				t.Fatal(err)
			}
			acq, err := srv.AcquireCodec("it", "u1")
			if err != nil {
				t.Fatal(err)
			}
			feats := probeRows(acq.Model.Codec.FeatureDim())
			old := serverDecode(t, srv, "it", "u1", feats)
			if got := serverDecode(t, srv, "it", "u1", feats); !reflect.DeepEqual(got, old) {
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
			oldFeats, oldCopy := senderView(t, srv, "it", "u1", words) // builds the sender table
			w.write(t, srv)
			fresh := directDecode(t, srv, "it", "u1", feats)
			if reflect.DeepEqual(fresh, old) {
				t.Fatal("the write changed no decode: the case proves nothing")
			}
			if got := serverDecode(t, srv, "it", "u1", feats); !reflect.DeepEqual(got, fresh) {
				t.Fatal("the server decoded with answers memoized before the write")
			}
			freshFeats, freshCopy := directSender(t, srv, "it", "u1", words)
			gotFeats, gotCopy := senderView(t, srv, "it", "u1", words)
			if !reflect.DeepEqual(gotFeats, freshFeats) || !reflect.DeepEqual(gotCopy, freshCopy) {
				t.Fatal("the server's sender side read a table built before the write")
			}
			if reflect.DeepEqual(oldFeats, freshFeats) && reflect.DeepEqual(oldCopy, freshCopy) {
				t.Fatal("the write moved nothing the sender table holds: the case proves nothing")
			}
		})
	}
}

// TestMemoServesOnlyTheReceiver: the receiver's decode (through the memo)
// and the §II-C decoder copy (read from the sender table) both match the
// bare codec, a repeated message is served from the memo, and the memo has
// looked up exactly the receiver's rows — recording a transaction, with or
// without the sender's encode result, never goes near it.
func TestMemoServesOnlyTheReceiver(t *testing.T) {
	corp, _ := cloudFixture(t)
	srv := newServer(t, 6, nil)
	gen := corpus.NewGenerator(corp, mat.NewRNG(71))
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	received := 0
	for i := 0; i < 30; i++ {
		m := gen.Message(corp.Domain("it").Index, nil)
		sc.Reset()
		enc, err := srv.Encode(sc, "it", "", m.Words)
		if err != nil {
			t.Fatal(err)
		}
		_, want := directSender(t, srv, "it", "", m.Words)
		// With the sender's surface IDs, and (enc == nil) resolving again.
		for _, e := range []*EncodeResult{&enc, nil} {
			tx, _, err := srv.RecordTransaction(sc, "it", "", m.Words, e)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tx.Decoded, want) {
				t.Fatalf("decoder copy recorded %v, the codec round-trips to %v", tx.Decoded, want)
			}
		}
		for range 2 {
			dec, err := srv.Decode(sc, "it", "", enc.Features)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec.Concepts, want) {
				t.Fatalf("receiver decoded %v, the codec round-trips to %v", dec.Concepts, want)
			}
			received += len(m.Words)
		}
	}
	st := srv.DecodeMemoStats()
	if st.Lookups != uint64(received) || st.Hits*2 < st.Lookups || st.Inserts == 0 {
		t.Fatalf("two receiver decodes of each message (%d rows) should be the memo's only traffic and mostly hit: %+v", received, st)
	}
}

// TestMemoMixedFeatureDims: models of different feature widths — narrower
// than the memo's key, equal to it, and wider (not memoized) — served by
// one server neither panic nor see each other's rows, even when the rows
// agree on every shared column.
func TestMemoMixedFeatureDims(t *testing.T) {
	corp := corpus.Build()
	cloud := kb.NewRegistry()
	dims := map[string]int{"it": 6, "medical": 8, "finance": 12}
	var size int64
	for name, dim := range dims {
		d := corp.Domain(name)
		if d == nil {
			t.Fatalf("corpus has no domain %q", name)
		}
		m := &kb.Model{Key: kb.GeneralKey(name, kb.RoleCodec), Version: 1,
			Codec: semantic.NewCodec(d, semantic.Config{EmbedDim: 8, FeatureDim: dim, HiddenDim: 12, Seed: uint64(dim)})}
		cloud.Put(m)
		size += m.SizeBytes()
	}
	srv, err := New(Config{Name: "mixed", CacheCapacity: 2 * size}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	wide := probeRows(12)
	for round := 0; round < 3; round++ {
		for name, dim := range dims {
			// The first dim columns of the same rows for every model.
			feats := mat.NewDense(wide.Rows, dim)
			for i := 0; i < wide.Rows; i++ {
				copy(feats.Row(i), wide.Row(i)[:dim])
			}
			got := serverDecode(t, srv, name, "", feats)
			if want := directDecode(t, srv, name, "", feats); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %s (dim %d): memoized decode differs from direct", round, name, dim)
			}
		}
	}
	// Two memoizable models x three rounds, the last two served from the
	// table but for set conflicts.
	if st := srv.DecodeMemoStats(); st.Lookups != uint64(3*2*wide.Rows) || st.Hits*10 < uint64(2*2*wide.Rows)*9 {
		t.Fatalf("two memoizable models, three rounds of %d rows: %+v", wide.Rows, st)
	}
}
