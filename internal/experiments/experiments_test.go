package experiments

import (
	"strings"
	"testing"
)

// The experiment tests use reduced sizes: they state the qualitative
// claims (README "What is reproduced"); the numbers themselves are pinned
// by TestTablesGolden.

func TestE1Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE1(env, E1Options{
		SNRs:              []float64{-4, 4, 12},
		MessagesPerDomain: 40,
		Domains:           []string{"it"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	low, mid, high := res.Points[0], res.Points[1], res.Points[2]
	// Semantic fidelity degrades gracefully; traditional collapses at low
	// SNR (the headline qualitative claim).
	if low.SemSimilarity <= low.TradConceptAcc {
		t.Fatalf("at -4 dB semantic (%v) should beat traditional (%v)",
			low.SemSimilarity, low.TradConceptAcc)
	}
	// Both converge high at 12 dB.
	if high.SemConceptAcc < 0.8 || high.TradConceptAcc < 0.8 {
		t.Fatalf("at 12 dB both should be high: sem %v trad %v",
			high.SemConceptAcc, high.TradConceptAcc)
	}
	// Monotone improvement with SNR for both.
	if !(low.SemConceptAcc <= mid.SemConceptAcc && mid.SemConceptAcc <= high.SemConceptAcc+0.05) {
		t.Fatalf("semantic accuracy not monotone: %v %v %v",
			low.SemConceptAcc, mid.SemConceptAcc, high.SemConceptAcc)
	}
	// Semantic payload must be smaller.
	if high.SemPayloadByte >= high.TradPayloadByte {
		t.Fatalf("semantic payload (%v) should be below traditional (%v)",
			high.SemPayloadByte, high.TradPayloadByte)
	}
	// Tables render.
	if len(res.FigureA().rows) != 3 || len(res.TableA().rows) != 2 {
		t.Fatal("table shapes wrong")
	}
}

func TestE2Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE2(env, E2Options{
		Capacities: []int{1, 4, 8},
		Policies:   []string{"lru", "lfu"},
		Requests:   1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, p := range []string{"lru", "lfu"} {
		small := res.cell(p, 1)
		full := res.cell(p, 8)
		if small.HitRate >= full.HitRate {
			t.Fatalf("%s: hit rate not increasing with capacity: %v -> %v",
				p, small.HitRate, full.HitRate)
		}
		// With capacity for the whole catalog the only misses are cold.
		if full.HitRate < 0.99 {
			t.Fatalf("%s: full-capacity hit rate = %v", p, full.HitRate)
		}
		if small.MeanFetchMs <= full.MeanFetchMs {
			t.Fatalf("%s: latency should shrink with capacity", p)
		}
	}
	if len(res.FigureB().rows) != 3 || len(res.LatencyTable().rows) != 3 {
		t.Fatal("table shapes wrong")
	}
}

func TestE3Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE3(env, E3Options{
		Users: 4, Rounds: 12, MessagesPerRound: 8,
		BufferThreshold: 24, IdiolectStrength: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 12 {
		t.Fatalf("rounds = %d", len(res.Rounds))
	}
	if res.FinalGap <= 0 {
		t.Fatalf("individual model did not beat general by the end: gap %v", res.FinalGap)
	}
	// The general baseline stays roughly flat; the individual curve must
	// end below its own start.
	first := res.Rounds[0].IndividualMismatch
	last := res.Rounds[len(res.Rounds)-1].IndividualMismatch
	if last >= first {
		t.Fatalf("individual mismatch did not decrease: %v -> %v", first, last)
	}
	updates := 0
	for _, row := range res.Rounds {
		updates += row.UpdatesFired
	}
	if updates == 0 {
		t.Fatal("no updates fired")
	}
	if len(res.FigureC().rows) != 12 {
		t.Fatal("table shape wrong")
	}
}

func TestE4Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE4(env, E4Options{Rounds: 6, BufferSize: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mechanisms) != 4 {
		t.Fatalf("mechanisms = %d", len(res.Mechanisms))
	}
	outputReturn := res.Mechanisms[0]
	decoderCopy := res.Mechanisms[1]
	if outputReturn.FeedbackBytesPerRound <= 0 {
		t.Fatal("output-return mechanism reported no feedback traffic")
	}
	if decoderCopy.FeedbackBytesPerRound != 0 {
		t.Fatal("decoder-copy mechanism should have zero feedback traffic")
	}
	if outputReturn.TotalBytes <= decoderCopy.TotalBytes {
		t.Fatalf("§II-C claim violated: output-return (%v B) should cost more than decoder-copy (%v B)",
			outputReturn.TotalBytes, decoderCopy.TotalBytes)
	}
	// Compressed sync cheaper than dense.
	if res.Mechanisms[3].SyncBytesPerUpdate >= decoderCopy.SyncBytesPerUpdate {
		t.Fatal("compressed sync not smaller than dense")
	}
	if len(res.TableB().rows) != 4 {
		t.Fatal("table shape wrong")
	}
}

func TestE5Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE5(env, E5Options{
		Selectors: []string{"oracle", "static", "naivebayes", "sticky"},
		Messages:  600,
		Users:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]E5Row{}
	for _, row := range res.Rows {
		byName[row.Selector] = row
	}
	if byName["oracle"].SelectionAccuracy != 1 {
		t.Fatalf("oracle accuracy = %v", byName["oracle"].SelectionAccuracy)
	}
	if byName["static"].SelectionAccuracy >= byName["naivebayes"].SelectionAccuracy {
		t.Fatal("static should lose to naive Bayes")
	}
	if byName["sticky"].SelectionAccuracy <= byName["naivebayes"].SelectionAccuracy {
		t.Fatalf("context-aware sticky (%v) should beat per-message NB (%v)",
			byName["sticky"].SelectionAccuracy, byName["naivebayes"].SelectionAccuracy)
	}
	// Better selection must translate into better end-to-end fidelity.
	if byName["oracle"].WordAccuracy <= byName["static"].WordAccuracy {
		t.Fatal("oracle fidelity should beat static")
	}
	if len(res.FigureD().rows) != 4 {
		t.Fatal("table shape wrong")
	}
}

func TestE6Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE6(env, E6Options{Messages: 150})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	warm, cold, thrash := res.Rows[0], res.Rows[1], res.Rows[2]
	// Cold fetches are rare (one per domain per edge), so they surface in
	// the tail and the mean, not the median.
	if warm.P99 >= cold.P99 {
		t.Fatalf("warm p99 (%v) should be below cold p99 (%v)", warm.P99, cold.P99)
	}
	if warm.Mean >= cold.Mean {
		t.Fatalf("warm mean (%v) should be below cold mean (%v)", warm.Mean, cold.Mean)
	}
	if warm.Mean >= thrash.Mean {
		t.Fatalf("warm mean (%v) should be below thrashing mean (%v)", warm.Mean, thrash.Mean)
	}
	if warm.HitRate < 0.99 {
		t.Fatalf("warm hit rate = %v", warm.HitRate)
	}
	if thrash.HitRate > 0.9 {
		t.Fatalf("thrashing hit rate suspiciously high: %v", thrash.HitRate)
	}
	if len(res.TableC().rows) != 3 {
		t.Fatal("table shape wrong")
	}
}

func TestE7Shapes(t *testing.T) {
	env := Environment()
	res, err := RunE7(env, E7Options{
		TopKFracs:  []float64{1, 0.1},
		BufferSize: 32,
		Updates:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 { // 2 fracs x int8 on/off
		t.Fatalf("points = %d", len(res.Points))
	}
	var dense, sparse E7Point
	for _, p := range res.Points {
		if !p.Int8 && p.TopKFrac == 1 {
			dense = p
		}
		if p.Int8 && p.TopKFrac == 0.1 {
			sparse = p
		}
	}
	if sparse.BytesPerSync >= dense.BytesPerSync/4 {
		t.Fatalf("top-10%%+int8 (%v B) should be far below dense (%v B)",
			sparse.BytesPerSync, dense.BytesPerSync)
	}
	// Dense sync is lossless: receiver == sender.
	if dense.ReceiverAccuracy != dense.SenderAccuracy {
		t.Fatalf("dense sync should be lossless: %v vs %v",
			dense.ReceiverAccuracy, dense.SenderAccuracy)
	}
	if len(res.FigureE().rows) != 4 {
		t.Fatal("table shape wrong")
	}
}

func TestAblationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping ablation sweeps in -short")
	}
	env := Environment()
	res, err := RunAblations(env, AblationOptions{Messages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FeatureDim) != 4 || len(res.Transport) != 4 {
		t.Fatalf("rows: dims %d transport %d", len(res.FeatureDim), len(res.Transport))
	}
	// Wider bottleneck should not reduce payload.
	if res.FeatureDim[0].PayloadBytes >= res.FeatureDim[3].PayloadBytes {
		t.Fatal("payload should grow with feature dim")
	}
	// Hamming-protected transport should beat uncoded at 6 dB.
	var hamming, uncoded AblationRow
	for _, row := range res.Transport {
		switch row.Config {
		case "digital/hamming":
			hamming = row
		case "digital/none":
			uncoded = row
		}
	}
	if hamming.ConceptAcc <= uncoded.ConceptAcc-0.02 {
		t.Fatalf("hamming (%v) should not lose to uncoded (%v) at 6 dB",
			hamming.ConceptAcc, uncoded.ConceptAcc)
	}
	tables := res.Tables()
	if len(tables) != 3 {
		t.Fatal("expected 3 ablation tables")
	}
	for _, tbl := range tables {
		if !strings.Contains(tbl.String(), "Ablation") {
			t.Fatal("ablation table missing title")
		}
	}
}

func TestEnvironmentSingleton(t *testing.T) {
	a := Environment()
	b := Environment()
	if a != b {
		t.Fatal("Environment not cached")
	}
}
