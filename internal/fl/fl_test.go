package fl

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

var (
	fixOnce sync.Once
	fixCorp *corpus.Corpus
	fixGen  *semantic.Codec
)

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

// fillBuffer records n idiolect-bearing transactions through codec's
// decoder copy.
func fillBuffer(corp *corpus.Corpus, codec *semantic.Codec, idio *corpus.Idiolect, n int, seed uint64) *Buffer {
	d := codec.Domain()
	gen := corpus.NewGenerator(corp, mat.NewRNG(seed))
	buf := NewBuffer(d.Name, "u1", n)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for i := 0; i < n; i++ {
		m := gen.Message(d.Index, idio)
		sids := make([]int, len(m.Words))
		for j, w := range m.Words {
			sids[j] = d.SurfaceID(w)
		}
		decoded := make([]int, len(m.Words))
		codec.RoundTripInto(sc, m.Words, decoded)
		buf.Add(Transaction{SurfaceIDs: sids, ConceptIDs: m.ConceptIDs, Decoded: decoded})
	}
	return buf
}

func TestTransactionMismatch(t *testing.T) {
	tx := Transaction{ConceptIDs: []int{1, 2, 3, 4}, Decoded: []int{1, 2, 9, 9}}
	if got := tx.Mismatch(); got != 0.5 {
		t.Fatalf("Mismatch = %v, want 0.5", got)
	}
	if (Transaction{}).Mismatch() != 0 {
		t.Fatal("empty transaction mismatch should be 0")
	}
	short := Transaction{ConceptIDs: []int{1, 2}, Decoded: []int{1}}
	if short.Mismatch() != 0.5 {
		t.Fatal("missing decoded positions should count as mismatches")
	}
}

func TestBufferLifecycle(t *testing.T) {
	b := NewBuffer("it", "u1", 3)
	if b.Ready() {
		t.Fatal("empty buffer ready")
	}
	for i := 0; i < 3; i++ {
		b.Add(Transaction{SurfaceIDs: []int{1}, ConceptIDs: []int{2}, Decoded: []int{2}})
	}
	if !b.Ready() || b.Len() != 3 {
		t.Fatal("buffer should be ready at threshold")
	}
	if got := len(b.Examples()); got != 3 {
		t.Fatalf("Examples = %d", got)
	}
	b.Reset()
	if b.Len() != 0 || b.Ready() {
		t.Fatal("Reset failed")
	}
}

func TestBufferDefaultThreshold(t *testing.T) {
	b := NewBuffer("it", "u1", 0)
	if b.Threshold != 32 {
		t.Fatalf("default threshold = %d", b.Threshold)
	}
}

func TestRunUpdateEmptyBuffer(t *testing.T) {
	_, gen := fixtures(t)
	buf := NewBuffer("it", "u1", 4)
	if _, err := RunUpdate(gen.Clone(), buf, 0, UpdateConfig{}); err == nil {
		t.Fatal("empty-buffer update should error")
	}
}

func TestRunUpdateImprovesAccuracy(t *testing.T) {
	corp, gen := fixtures(t)
	individual := gen.Clone()
	idio := corpus.NewIdiolect(corp, mat.NewRNG(91), 0.5)
	buf := fillBuffer(corp, individual, idio, 48, 92)

	pre := individual.Evaluate(buf.Examples())
	upd, err := RunUpdate(individual, buf, 0, UpdateConfig{Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Version != 1 {
		t.Fatalf("Version = %d", upd.Version)
	}
	if post := individual.Evaluate(buf.Examples()); post <= pre {
		t.Fatalf("fine-tune did not improve: %v -> %v", pre, post)
	}
	if want := nn.DenseSizeBytes(upd.Decoder); upd.PayloadBytes != want {
		t.Fatalf("byte accounting wrong: %d, want %d", upd.PayloadBytes, want)
	}
}

func TestApplyUpdateSynchronizesReceiver(t *testing.T) {
	corp, gen := fixtures(t)
	sender := gen.Clone()
	receiver := gen.Clone()
	idio := corpus.NewIdiolect(corp, mat.NewRNG(93), 0.5)
	buf := fillBuffer(corp, sender, idio, 48, 94)

	upd, err := RunUpdate(sender, buf, 0, UpdateConfig{Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyUpdate(receiver, upd); err != nil {
		t.Fatal(err)
	}
	// The receiver's decoder is the sender's, bit for bit.
	want, got := sender.DecoderParams(), receiver.DecoderParams()
	for i, p := range want.Params {
		for j, v := range p.M.Data {
			if w := got.Params[i].M.Data[j]; math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("%s[%d]: receiver %v, sender %v", p.Name, j, w, v)
			}
		}
	}
	// Lossless sync: every feature the sender's encoder makes decodes on
	// the receiver as on the sender.
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	feat := make([]float64, sender.FeatureDim())
	var a, b [1]int
	for _, ex := range buf.Examples() {
		sender.EncodeSurfaceID(ex.SurfaceID, feat)
		sender.DecodeFeaturesInto(sc, sc.Wrap(1, len(feat), feat), a[:])
		receiver.DecodeFeaturesInto(sc, sc.Wrap(1, len(feat), feat), b[:])
		if a != b {
			t.Fatalf("surface %d: sender decodes %d, receiver %d", ex.SurfaceID, a[0], b[0])
		}
		sc.Reset()
	}
}

func TestApplyUpdateRejectsGarbage(t *testing.T) {
	_, gen := fixtures(t)
	junk := &nn.ParamSet{}
	junk.Add("junk", mat.NewDense(1, 1))
	if err := ApplyUpdate(gen.Clone(), &Update{Decoder: junk}); err == nil {
		t.Fatal("garbage decoder accepted")
	}
}

// TestApplyUpdateAllOrNothing: a decoder whose second tensor is misnamed or
// misshaped is refused before its first tensor is copied, so every weight
// of the receiver keeps its bits.
func TestApplyUpdateAllOrNothing(t *testing.T) {
	_, gen := fixtures(t)
	for name, spoil := range map[string]func(p *nn.Param){
		"misnamed":  func(p *nn.Param) { p.Name = "dec.X" },
		"misshaped": func(p *nn.Param) { p.M = mat.NewDense(p.M.Rows, p.M.Cols+1) },
	} {
		receiver := gen.Clone()
		dec := receiver.DecoderParams().ZeroClone()
		for _, p := range dec.Params {
			for i := range p.M.Data {
				p.M.Data[i] = 1
			}
		}
		spoil(&dec.Params[1])
		before := receiver.Params().Clone()
		if err := ApplyUpdate(receiver, &Update{Decoder: dec}); err == nil {
			t.Fatalf("%s: decoder accepted", name)
		}
		if !reflect.DeepEqual(receiver.Params(), before) {
			t.Fatalf("%s: a refused decoder changed the receiver's weights", name)
		}
	}
}

func TestUpdateDoesNotTouchEncoderOnReceiver(t *testing.T) {
	corp, gen := fixtures(t)
	sender := gen.Clone()
	receiver := gen.Clone()
	idio := corpus.NewIdiolect(corp, mat.NewRNG(97), 0.4)
	buf := fillBuffer(corp, sender, idio, 40, 98)
	upd, err := RunUpdate(sender, buf, 0, UpdateConfig{Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := receiver.Params().Clone()
	if err := ApplyUpdate(receiver, upd); err != nil {
		t.Fatal(err)
	}
	after := receiver.Params()
	for _, name := range []string{semantic.ParamEncEmb, semantic.ParamEncW, semantic.ParamEncB} {
		a, b := before.ByName(name).Data, after.ByName(name).Data
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("decoder update modified receiver encoder tensor %s", name)
			}
		}
	}
}
