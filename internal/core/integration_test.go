package core

import (
	"math"
	"testing"

	"repro/internal/text"
)

// Integration tests of the live TransmitText path and the explicit update
// entry point.

// buildSystem constructs a system with the shared small codec config plus
// the given mutator.
func buildSystem(t *testing.T, mutate func(*Config)) *System {
	t.Helper()
	cfg := testConfig()
	cfg.Selector = selectFixed
	cfg.PinGeneral = true
	cfg.BufferThreshold = math.MaxInt
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransmitText(t *testing.T) {
	s := buildSystem(t, func(c *Config) { c.Selector = SelectorSticky })
	res, err := s.TransmitText("alice", text.Tokenize("the server has a kernel bug"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Corpus.Domains[res.SelectedDomain].Name != "it" {
		t.Fatalf("selected %q", s.Corpus.Domains[res.SelectedDomain].Name)
	}
	if len(res.RestoredWords) != 6 {
		t.Fatalf("restored %v", res.RestoredWords)
	}
	if res.PayloadBytes <= 0 || res.Latency <= 0 {
		t.Fatal("missing transport accounting")
	}
}

// TestOracleSteersTransmitText: under an oracle selector, the domain a
// driver sets on the user's selector is the domain TransmitText encodes
// with, whatever the words say — an IT message is sent on each domain in
// turn.
func TestOracleSteersTransmitText(t *testing.T) {
	s := buildSystem(t, nil) // fixed-domain selector
	words := text.Tokenize("the server has a kernel bug")
	for _, d := range s.Corpus.Domains {
		steer(s, "alice", d.Index)
		res, err := s.TransmitText("alice", words)
		if err != nil {
			t.Fatal(err)
		}
		if res.SelectedDomain != d.Index || len(res.RestoredWords) != len(words) {
			t.Fatalf("oracle set to %s: selected %d, restored %v", d.Name, res.SelectedDomain, res.RestoredWords)
		}
	}
}

func TestProcessUpdateWithoutData(t *testing.T) {
	s := buildSystem(t, nil)
	if _, err := s.ProcessUpdate("it", "ghost"); err == nil {
		t.Fatal("update without buffered data accepted")
	}
}
