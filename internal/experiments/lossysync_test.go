package experiments

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fl"
	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/semantic"
)

func gradFixture(seed uint64) *nn.ParamSet {
	rng := mat.NewRNG(seed)
	ps := &nn.ParamSet{}
	w := mat.NewDense(8, 10)
	w.Randomize(rng, 1)
	b := mat.NewDense(1, 8)
	b.Randomize(rng, 1)
	ps.Add("dec.W", w)
	ps.Add("dec.B", b)
	return ps
}

func TestCompressDenseLossless(t *testing.T) {
	g := gradFixture(1)
	target := g.ZeroClone()
	if err := compress(g, compressOptions{}).applyTo(target); err != nil {
		t.Fatalf("applyTo: %v", err)
	}
	for i, p := range g.Params {
		for j := range p.M.Data {
			if p.M.Data[j] != target.Params[i].M.Data[j] {
				t.Fatalf("dense compress not lossless at %s[%d]", p.Name, j)
			}
		}
	}
}

func TestCompressTopKKeepsLargest(t *testing.T) {
	g := &nn.ParamSet{}
	w := mat.NewDense(1, 10)
	copy(w.Data, []float64{0.1, -5, 0.2, 3, -0.1, 0.05, 4, -0.3, 0.01, 2})
	g.Add("w", w)
	ct := compress(g, compressOptions{topKFrac: 0.3}).tensors[0]
	if len(ct.idx) != 3 {
		t.Fatalf("top-30%% of 10 = %d entries, want 3", len(ct.idx))
	}
	// Largest magnitudes are -5 (idx 1), 4 (idx 6), 3 (idx 3).
	want := map[uint32]bool{1: true, 3: true, 6: true}
	for _, ix := range ct.idx {
		if !want[ix] {
			t.Fatalf("top-k kept unexpected index %d", ix)
		}
	}
}

func TestCompressInt8BoundedError(t *testing.T) {
	g := gradFixture(2)
	target := g.ZeroClone()
	if err := compress(g, compressOptions{int8: true}).applyTo(target); err != nil {
		t.Fatalf("applyTo: %v", err)
	}
	for i, p := range g.Params {
		maxAbs := mat.MaxAbs(p.M.Data)
		tol := maxAbs/127 + 1e-12 // one quantization step
		for j := range p.M.Data {
			diff := math.Abs(p.M.Data[j] - target.Params[i].M.Data[j])
			if diff > tol {
				t.Fatalf("int8 error %v exceeds one step %v at %s[%d]", diff, tol, p.Name, j)
			}
		}
	}
}

func TestCompressSizeOrdering(t *testing.T) {
	g := gradFixture(3)
	dense := compress(g, compressOptions{}).sizeBytes()
	topk := compress(g, compressOptions{topKFrac: 0.1}).sizeBytes()
	topkQ := compress(g, compressOptions{topKFrac: 0.1, int8: true}).sizeBytes()
	q := compress(g, compressOptions{int8: true}).sizeBytes()
	if !(topkQ < topk && topk < dense) {
		t.Fatalf("size ordering violated: topkQ=%d topk=%d dense=%d", topkQ, topk, dense)
	}
	if q >= dense {
		t.Fatalf("int8 (%d) not smaller than dense (%d)", q, dense)
	}
	if got := nn.DenseSizeBytes(g); got != dense {
		t.Fatalf("DenseSizeBytes = %d, lossless compress weighs %d", got, dense)
	}
	// One tensor of 10 values: the 8-byte set header, a 16-byte tensor
	// header ("w" named), then 8 bytes a value; top-30% keeps 3 indices and
	// values, int8 a scale and a byte a value.
	w := &nn.ParamSet{}
	w.Add("w", mat.NewDense(1, 10))
	for _, c := range []struct {
		opts compressOptions
		want int
	}{
		{compressOptions{}, 8 + 16 + 80},
		{compressOptions{topKFrac: 0.3}, 8 + 16 + 3*4 + 3*8},
		{compressOptions{int8: true}, 8 + 16 + 8 + 10},
		{compressOptions{topKFrac: 0.3, int8: true}, 8 + 16 + 3*4 + 8 + 3},
	} {
		if got := compress(w, c.opts).sizeBytes(); got != c.want {
			t.Fatalf("%+v weighs %d, want %d", c.opts, got, c.want)
		}
	}
}

func TestApplyToNameMismatch(t *testing.T) {
	cd := compress(gradFixture(6), compressOptions{})
	other := &nn.ParamSet{}
	other.Add("different", mat.NewDense(8, 10))
	if err := cd.applyTo(other); err == nil {
		t.Fatal("applied to mismatched parameter set")
	}
}

func TestApplyToShapeMismatch(t *testing.T) {
	cd := compress(gradFixture(7), compressOptions{})
	other := &nn.ParamSet{}
	other.Add("dec.W", mat.NewDense(2, 2))
	other.Add("dec.B", mat.NewDense(1, 8))
	if err := cd.applyTo(other); err == nil {
		t.Fatal("applied despite shape mismatch")
	}
}

// fillBuffer records n idiolect-bearing transactions of the fixture domain
// through codec's decoder copy.
func fillBuffer(corp *corpus.Corpus, codec *semantic.Codec, idio *corpus.Idiolect, n int, seed uint64) *fl.Buffer {
	d := corp.Domain("it")
	gen := corpus.NewGenerator(corp, mat.NewRNG(seed))
	buf := fl.NewBuffer(d.Name, "u1", n)
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
		buf.Add(fl.Transaction{SurfaceIDs: sids, ConceptIDs: m.ConceptIDs, Decoded: decoded})
	}
	return buf
}

// TestLossySyncZeroOptsIsServedSync: E4 and E7's dense rows write the
// served sync's bits and cost its bytes.
func TestLossySyncZeroOptsIsServedSync(t *testing.T) {
	corp, gen := fixtures(t)
	sender := gen.Clone()
	served, measured := gen.Clone(), gen.Clone()
	buf := fillBuffer(corp, sender, corpus.NewIdiolect(corp, mat.NewRNG(93), 0.5), 48, 94)
	before := sender.DecoderParams().Clone()
	upd, err := fl.RunUpdate(sender, buf, 0, fl.UpdateConfig{Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.ApplyUpdate(served, upd); err != nil {
		t.Fatal(err)
	}
	bytes, err := lossySync(measured, before, upd, compressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes != upd.PayloadBytes {
		t.Fatalf("dense lossy sync costs %d bytes, the served sync %d", bytes, upd.PayloadBytes)
	}
	if !reflect.DeepEqual(served.Params(), measured.Params()) {
		t.Fatal("dense lossy sync wrote other weights than fl.ApplyUpdate")
	}
}

func TestCompressedUpdateCloseToLossless(t *testing.T) {
	corp, gen := fixtures(t)
	sender := gen.Clone()
	receiver := gen.Clone()
	buf := fillBuffer(corp, sender, corpus.NewIdiolect(corp, mat.NewRNG(95), 0.5), 48, 96)

	before := sender.DecoderParams().Clone()
	upd, err := fl.RunUpdate(sender, buf, 0, fl.UpdateConfig{Epochs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bytes, err := lossySync(receiver, before, upd, compressOptions{topKFrac: 0.25, int8: true})
	if err != nil {
		t.Fatal(err)
	}
	examples := buf.Examples()
	local := sender.Evaluate(examples)
	cross := crossEvaluate(sender, receiver, examples)
	if cross < local-0.15 {
		t.Fatalf("compressed sync degraded too much: local %v cross %v", local, cross)
	}
	if bytes >= upd.PayloadBytes/2 {
		t.Fatalf("top-25%%+int8 payload %d not much smaller than dense %d",
			bytes, upd.PayloadBytes)
	}
}

func TestCrossEvaluateEmpty(t *testing.T) {
	_, gen := fixtures(t)
	if got := crossEvaluate(gen, gen, nil); got != 0 {
		t.Fatalf("empty crossEvaluate = %v", got)
	}
}

func TestOutputReturnBytes(t *testing.T) {
	if got := outputReturnBytes([]string{"ab", "cde"}); got != 7 {
		t.Fatalf("outputReturnBytes = %d, want 7", got)
	}
}
