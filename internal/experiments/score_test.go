package experiments

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// scoreTestSystem builds a small, fast system under the named selector,
// generals pinned and no update process, so every score below is the
// general models' fidelity. It returns the oracle RunTrace steers, nil
// unless name is "oracle".
func scoreTestSystem(t *testing.T, name string) (*core.System, *Static) {
	t.Helper()
	selector, oracle, err := selectorByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Codec: semantic.Config{
			EmbedDim:   12,
			FeatureDim: 6,
			HiddenDim:  16,
			Epochs:     3,
			Sentences:  400,
		},
		Selector:        selector,
		PinGeneral:      true,
		BufferThreshold: math.MaxInt,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, oracle
}

func TestTransmitEndToEnd(t *testing.T) {
	s, oracle := scoreTestSystem(t, "oracle")
	w := trace.Generate(s.Corpus, trace.Config{Users: 2, Messages: 30, Seed: 11})
	results, err := RunTrace(s, oracle, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 30 {
		t.Fatalf("results = %d, want 30", len(results))
	}
	sum, err := Summarize(results)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle selection, trained codecs, 12 dB with Hamming: high fidelity.
	if sum.MeanWordAccuracy < 0.75 {
		t.Fatalf("word accuracy = %v, want >= 0.75", sum.MeanWordAccuracy)
	}
	if sum.MeanSimilarity < sum.MeanWordAccuracy {
		t.Fatalf("similarity (%v) should be >= word accuracy (%v)",
			sum.MeanSimilarity, sum.MeanWordAccuracy)
	}
	if sum.SelectionAccuracy != 1 {
		t.Fatalf("oracle selection accuracy = %v", sum.SelectionAccuracy)
	}
	if sum.MeanPayloadBytes <= 0 {
		t.Fatal("no payload accounted")
	}
	for _, r := range results {
		if r.Latency <= 0 {
			t.Fatal("non-positive latency")
		}
		if len(r.RestoredWords) != len(r.Req.Msg.Words) {
			t.Fatal("restored length mismatch")
		}
	}
}

func TestWrongSelectionScoresLow(t *testing.T) {
	s, _ := scoreTestSystem(t, "static") // always domain 0, "it"
	w := trace.Generate(s.Corpus, trace.Config{Users: 2, Messages: 100, Seed: 31})
	results, err := RunTrace(s, nil, w)
	if err != nil {
		t.Fatal(err)
	}
	var right, wrong int
	var rightAcc, wrongAcc float64
	for _, r := range results {
		if r.CorrectSelection {
			right++
			rightAcc += r.WordAccuracy
		} else {
			wrong++
			wrongAcc += r.WordAccuracy
		}
	}
	if right == 0 || wrong == 0 {
		t.Skipf("workload lacked both conditions: right=%d wrong=%d", right, wrong)
	}
	if rightAcc/float64(right) <= wrongAcc/float64(wrong) {
		t.Fatalf("wrong-domain selection should hurt fidelity: right %v wrong %v",
			rightAcc/float64(right), wrongAcc/float64(wrong))
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty summarize should error")
	}
}
