package trace

import (
	"testing"

	"repro/internal/corpus"
)

func TestGenerateDefaults(t *testing.T) {
	corp := corpus.Build()
	w := Generate(corp, Config{})
	if len(w.Requests) != 1000 {
		t.Fatalf("requests = %d, want default 1000", len(w.Requests))
	}
	if len(w.Users) != 8 {
		t.Fatalf("users = %d, want default 8", len(w.Users))
	}
	for i, r := range w.Requests {
		if r.Seq != i {
			t.Fatal("Seq not sequential")
		}
		if r.User == "" || len(r.Msg.Words) == 0 {
			t.Fatal("malformed request")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	corp := corpus.Build()
	cfg := Config{Users: 4, Messages: 200, Seed: 42}
	a := Generate(corp, cfg)
	b := Generate(corp, cfg)
	for i := range a.Requests {
		if a.Requests[i].User != b.Requests[i].User ||
			a.Requests[i].Msg.Text() != b.Requests[i].Msg.Text() {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	corp := corpus.Build()
	a := Generate(corp, Config{Messages: 100, Seed: 1})
	b := Generate(corp, Config{Messages: 100, Seed: 2})
	same := 0
	for i := range a.Requests {
		if a.Requests[i].Msg.Text() == b.Requests[i].Msg.Text() {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("different seeds produced %d/100 identical messages", same)
	}
}

func TestZipfDomainPopularity(t *testing.T) {
	corp := corpus.Build()
	w := Generate(corp, Config{Messages: 5000, Seed: 3})
	counts := make([]int, len(corp.Domains))
	for _, r := range w.Requests {
		counts[r.Msg.DomainIndex]++
	}
	max, min := counts[0], counts[0]
	for _, c := range counts {
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max < 3*min {
		t.Fatalf("domain popularity not skewed: %v", counts)
	}
}

func TestTopicRuns(t *testing.T) {
	corp := corpus.Build()
	w := Generate(corp, Config{Users: 1, Messages: 2000, MeanRunLength: 15, Seed: 9})
	// Count run lengths for the single user.
	runs := 0
	for i := 1; i < len(w.Requests); i++ {
		if w.Requests[i].Msg.DomainIndex != w.Requests[i-1].Msg.DomainIndex {
			runs++
		}
	}
	meanRun := float64(len(w.Requests)) / float64(runs+1)
	// Domain switches occur with prob 1/15 but may resample the same
	// domain, so observed runs are somewhat longer than 15.
	if meanRun < 8 {
		t.Fatalf("mean run length %v too short for MeanRunLength 15", meanRun)
	}
}

func TestIdiolectsAssigned(t *testing.T) {
	corp := corpus.Build()
	w := Generate(corp, Config{Users: 5, Messages: 10, IdiolectStrength: 0.4, Seed: 4})
	withPrefs := 0
	for _, u := range w.Users {
		if w.Idiolects[u] != nil && w.Idiolects[u].NumPrefs() > 0 {
			withPrefs++
		}
	}
	if withPrefs != 5 {
		t.Fatalf("%d/5 users have idiolects", withPrefs)
	}
	// Different users must have different idiolects.
	a, b := w.Idiolects[w.Users[0]], w.Idiolects[w.Users[1]]
	if a.NumPrefs() == 0 || b.NumPrefs() == 0 {
		t.Fatal("empty idiolects")
	}
}

func TestNoIdiolectByDefault(t *testing.T) {
	corp := corpus.Build()
	w := Generate(corp, Config{Users: 2, Messages: 10, Seed: 4})
	for _, u := range w.Users {
		if w.Idiolects[u] != nil {
			t.Fatal("default workload should have generic speakers")
		}
	}
}

func TestMobilityEvents(t *testing.T) {
	corp := corpus.Build()
	cfg := Config{Users: 6, Messages: 2000, Cells: 4, MobilityRate: 0.05, Seed: 9}
	w := Generate(corp, cfg)
	if len(w.Moves) == 0 {
		t.Fatal("mobility enabled but no moves generated")
	}
	// Roughly rate*messages moves, within a loose statistical band.
	if len(w.Moves) < 40 || len(w.Moves) > 250 {
		t.Fatalf("moves = %d, want about %d", len(w.Moves), int(0.05*2000))
	}
	lastSeq := -1
	for _, mv := range w.Moves {
		if mv.Cell < 0 || mv.Cell >= cfg.Cells {
			t.Fatalf("move cell %d out of range [0,%d)", mv.Cell, cfg.Cells)
		}
		if mv.Seq < lastSeq || mv.Seq >= cfg.Messages {
			t.Fatalf("move seq %d out of order or range", mv.Seq)
		}
		lastSeq = mv.Seq
		if w.Requests[mv.Seq].User != mv.User {
			t.Fatalf("move at seq %d names %s, request says %s", mv.Seq, mv.User, w.Requests[mv.Seq].User)
		}
		if w.Requests[mv.Seq].Cell != mv.Cell {
			t.Fatalf("request %d cell %d, move says %d", mv.Seq, w.Requests[mv.Seq].Cell, mv.Cell)
		}
	}
	// Determinism: an identical config yields an identical move stream.
	w2 := Generate(corp, cfg)
	if len(w2.Moves) != len(w.Moves) {
		t.Fatal("mobility stream not deterministic")
	}
	for i := range w.Moves {
		if w.Moves[i] != w2.Moves[i] {
			t.Fatalf("move %d differs across identical runs", i)
		}
	}
}

func TestMobilityDoesNotPerturbMessages(t *testing.T) {
	// Enabling mobility must not change a single message, user pick or
	// domain: the mobility stream draws from its own RNG split.
	corp := corpus.Build()
	base := Generate(corp, Config{Users: 5, Messages: 500, Seed: 13})
	mob := Generate(corp, Config{Users: 5, Messages: 500, Seed: 13, Cells: 3, MobilityRate: 0.2})
	if len(base.Moves) != 0 {
		t.Fatal("mobility-free workload generated moves")
	}
	for i := range base.Requests {
		if base.Requests[i].User != mob.Requests[i].User ||
			base.Requests[i].Msg.DomainIndex != mob.Requests[i].Msg.DomainIndex ||
			base.Requests[i].Msg.Text() != mob.Requests[i].Msg.Text() {
			t.Fatalf("request %d differs once mobility is enabled", i)
		}
		if base.Requests[i].Cell != -1 {
			t.Fatalf("request %d: home cell should be -1, got %d", i, base.Requests[i].Cell)
		}
	}
}
