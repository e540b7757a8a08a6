package core

import (
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
	cfg.Selector = SelectorOracle
	cfg.PinGeneral = true
	cfg.DisableAutoUpdate = true
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

func TestTransmitTextOracleRejected(t *testing.T) {
	s := buildSystem(t, nil) // oracle selector
	if _, err := s.TransmitText("alice", []string{"the", "server"}); err == nil {
		t.Fatal("oracle TransmitText should error")
	}
}

func TestProcessUpdateWithoutData(t *testing.T) {
	s := buildSystem(t, nil)
	if _, err := s.ProcessUpdate("it", "ghost"); err == nil {
		t.Fatal("update without buffered data accepted")
	}
}
