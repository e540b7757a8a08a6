package semantic

import (
	"math"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// testConfig keeps unit-test training fast.
func testConfig() Config {
	return Config{
		EmbedDim:   12,
		FeatureDim: 8,
		HiddenDim:  16,
		Epochs:     3,
		Sentences:  500,
		Seed:       7,
	}
}

var (
	corpOnce   sync.Once
	sharedCorp *corpus.Corpus
	itCodec    *Codec
)

// sharedFixtures pretrains a single IT-domain codec reused by read-only
// tests to keep the suite fast.
func sharedFixtures(t *testing.T) (*corpus.Corpus, *Codec) {
	t.Helper()
	corpOnce.Do(func() {
		sharedCorp = corpus.Build()
		itCodec = Pretrain(sharedCorp.Domain("it"), sharedCorp, testConfig())
	})
	return sharedCorp, itCodec
}

func TestNewCodecShapes(t *testing.T) {
	corp := corpus.Build()
	d := corp.Domain("medical")
	c := NewCodec(d, testConfig())
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.FeatureDim() != 8 {
		t.Fatalf("FeatureDim = %d", c.FeatureDim())
	}
	ps := c.Params()
	if len(ps.Params) != 7 {
		t.Fatalf("param tensors = %d, want 7", len(ps.Params))
	}
	if c.SizeBytes() <= 0 || c.EncoderSizeBytes() <= 0 || c.DecoderSizeBytes() <= 0 {
		t.Fatal("non-positive size accounting")
	}
	if c.EncoderSizeBytes()+c.DecoderSizeBytes() != c.SizeBytes()+4 {
		// Each subset carries its own 4-byte count header, so the two
		// halves overlap the full set's single header by exactly 4 bytes.
		t.Fatalf("size split inconsistent: enc %d + dec %d vs all %d",
			c.EncoderSizeBytes(), c.DecoderSizeBytes(), c.SizeBytes())
	}
}

func TestPretrainLearnsReconstruction(t *testing.T) {
	corp, c := sharedFixtures(t)
	d := corp.Domain("it")
	gen := corpus.NewGenerator(corp, mat.NewRNG(1234))
	var examples []Example
	for _, m := range gen.Batch(d.Index, 150, nil) {
		examples = append(examples, ExamplesFromMessage(d, m)...)
	}
	acc := c.Evaluate(examples)
	if acc < 0.85 {
		t.Fatalf("pretrained reconstruction accuracy = %v, want >= 0.85", acc)
	}
}

func TestRoundTripMatchesEncodeDecode(t *testing.T) {
	corp, c := sharedFixtures(t)
	gen := corpus.NewGenerator(corp, mat.NewRNG(55))
	m := gen.Message(corp.Domain("it").Index, nil)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	got, want := make([]int, len(m.Words)), make([]int, len(m.Words))
	c.RoundTripInto(sc, m.Words, got)
	c.DecodeFeaturesInto(sc, c.EncodeWordsInto(sc, m.Words), want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("RoundTripInto disagrees with Encode+Decode")
		}
	}
}

func TestFeaturesBounded(t *testing.T) {
	corp, c := sharedFixtures(t)
	gen := corpus.NewGenerator(corp, mat.NewRNG(77))
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for i := 0; i < 20; i++ {
		m := gen.Message(corp.Domain("it").Index, nil)
		sc.Reset()
		for _, v := range c.EncodeWordsInto(sc, m.Words).Data {
			if v < -1 || v > 1 {
				t.Fatalf("feature %v outside [-1,1]", v)
			}
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	_, c := sharedFixtures(t)
	clone := c.Clone()
	orig := c.Params().ByName(ParamDecW).Data[0]
	clone.Params().ByName(ParamDecW).Data[0] = orig + 42
	if c.Params().ByName(ParamDecW).Data[0] != orig {
		t.Fatal("Clone shares decoder storage")
	}
}

func TestUnknownWordEncodesAsUnknown(t *testing.T) {
	corp, c := sharedFixtures(t)
	d := corp.Domain("it")
	fUnknown := make([]float64, c.FeatureDim())
	c.EncodeSurfaceID(d.SurfaceID("notaword12345"), fUnknown)
	fUnk := make([]float64, c.FeatureDim())
	c.EncodeSurfaceID(corpus.UnknownSurfaceID, fUnk)
	for i := range fUnk {
		if fUnknown[i] != fUnk[i] {
			t.Fatal("out-of-lexicon word did not encode as unknown surface")
		}
	}
}

func TestDecoderSyncViaCopy(t *testing.T) {
	// A receiver holding a stale decoder copy must, after taking the
	// sender's decoder, decode identically to the sender — the §II-C/§II-D
	// consistency property the whole update process relies on.
	corp, c := sharedFixtures(t)
	d := corp.Domain("it")
	sender := c.Clone()
	receiver := c.Clone()

	// Fine-tune the sender's individual model.
	gen := corpus.NewGenerator(corp, mat.NewRNG(9))
	idio := corpus.NewIdiolect(corp, mat.NewRNG(10), 0.4)
	var examples []Example
	for _, m := range gen.Batch(d.Index, 60, idio) {
		examples = append(examples, ExamplesFromMessage(d, m)...)
	}
	sender.FineTune(examples, 2, mat.NewRNG(11))

	// Ship the sender's decoder as fl.RunUpdate (a clone) and
	// fl.ApplyUpdate (a copy into the receiver's decoder) do.
	receiver.DecoderParams().CopyFrom(sender.DecoderParams().Clone())

	// Sender and receiver decoders must now agree everywhere.
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for i := 0; i < 40; i++ {
		m := gen.Message(d.Index, idio)
		sc.Reset()
		feats := sender.EncodeWordsInto(sc, m.Words)
		a, b := make([]int, feats.Rows), make([]int, feats.Rows)
		sender.DecodeFeaturesInto(sc, feats, a)
		receiver.DecodeFeaturesInto(sc, feats, b)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("receiver decoder diverged after the decoder sync")
			}
		}
	}
}

func TestPersonalizationReducesIdiolectMismatch(t *testing.T) {
	// The paper's §II-B claim: general models mis-handle user idiolects;
	// user-specific individual models fix this.
	corp, general := sharedFixtures(t)
	d := corp.Domain("it")
	rng := mat.NewRNG(42)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())

	var train, test []Example
	for _, m := range gen.Batch(d.Index, 120, idio) {
		train = append(train, ExamplesFromMessage(d, m)...)
	}
	for _, m := range gen.Batch(d.Index, 80, idio) {
		test = append(test, ExamplesFromMessage(d, m)...)
	}

	generalAcc := general.Evaluate(test)
	individual := general.Clone()
	individual.FineTune(train, 4, rng.Split())
	individualAcc := individual.Evaluate(test)

	if individualAcc <= generalAcc {
		t.Fatalf("personalization did not help: general %v, individual %v", generalAcc, individualAcc)
	}
	if individualAcc-generalAcc < 0.03 {
		t.Fatalf("personalization gain too small: general %v, individual %v", generalAcc, individualAcc)
	}
}

func TestPolysemyDecodesPerDomain(t *testing.T) {
	// "bus" must restore to "interconnect" under the IT codec and to
	// "shuttle" under the travel codec — the paper's motivating example.
	corp, itC := sharedFixtures(t)
	cfg := testConfig()
	travelC := Pretrain(corp.Domain("travel"), corp, cfg)

	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	itConcepts, travelConcepts := make([]int, 1), make([]int, 1)
	itC.RoundTripInto(sc, []string{"bus"}, itConcepts)
	travelC.RoundTripInto(sc, []string{"bus"}, travelConcepts)
	itWord := itC.RestoreWords(itConcepts)[0]
	travelWord := travelC.RestoreWords(travelConcepts)[0]
	if itWord != "interconnect" {
		t.Errorf("IT codec restored bus -> %q, want interconnect", itWord)
	}
	if travelWord != "shuttle" {
		t.Errorf("travel codec restored bus -> %q, want shuttle", travelWord)
	}
}

// TestTrainEpochEmptyExamples: an epoch over no examples leaves every
// parameter as it was.
func TestTrainEpochEmptyExamples(t *testing.T) {
	corp := corpus.Build()
	c := NewCodec(corp.Domain("it"), testConfig())
	before := c.Clone()
	c.TrainEpoch(nil, &nn.SGD{LR: 0.1}, mat.NewRNG(1), 0)
	c.TrainEpoch(nil, &nn.Adam{LR: 0.1, Clip: 5}, mat.NewRNG(1), 0.2)
	c.FineTune(nil, 3, mat.NewRNG(1))
	sameParamBits(t, "empty epochs", c.Params(), before.Params())
}

// TestPretrainedWeightsHoldNoNegativeZero: a momentum-SGD step on a row
// with zero velocity and zero gradient is the identity on every weight but
// −0, which p + (+0) turns into +0 — and the fine-tune skips such rows
// (nn.Param.Rows). So no weight of a pretrained KB, which every individual
// model starts from, may be −0: the knowledge bases a daemon builds (seed
// 1, all domains, default sizes) and semkb's -seed 11 store.
func TestPretrainedWeightsHoldNoNegativeZero(t *testing.T) {
	corp := corpus.Build()
	seeds := []uint64{1, 11}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, c := range PretrainAll(corp, Config{Seed: seed}) {
			for _, p := range c.params().Params {
				for j, v := range p.M.Data {
					if v == 0 && math.Signbit(v) {
						t.Fatalf("seed %d, domain %s: %s[%d] is -0", seed, c.Domain().Name, p.Name, j)
					}
				}
			}
		}
	}
}

func TestPretrainDeterministic(t *testing.T) {
	corp := corpus.Build()
	cfg := testConfig()
	cfg.Sentences = 100
	cfg.Epochs = 1
	a := Pretrain(corp.Domain("news"), corp, cfg)
	b := Pretrain(corp.Domain("news"), corp, cfg)
	pa, pb := a.Params(), b.Params()
	for i := range pa.Params {
		for j := range pa.Params[i].M.Data {
			if pa.Params[i].M.Data[j] != pb.Params[i].M.Data[j] {
				t.Fatal("Pretrain is not deterministic")
			}
		}
	}
}
