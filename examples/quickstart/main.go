// Quickstart: boot the full semantic edge system, transmit a few messages
// end-to-end (selection -> semantic encoding -> noisy channel -> semantic
// decoding), and print what the receiver restored.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/text"
)

func main() {
	fmt.Println("pretraining domain-specialized general models...")
	t0 := time.Now()
	sys, err := core.NewSystem(core.Config{
		Selector:   core.SelectorSticky, // context-aware model selection
		SNRdB:      10,                  // a noisy but workable channel
		PinGeneral: true,
		Seed:       1,
	})
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	fmt.Printf("ready in %v; domains: %v\n\n", time.Since(t0).Round(time.Millisecond), sys.Corpus.Names())

	messages := []struct {
		user string
		text string
	}{
		{"alice", "the server has a kernel bug and the network has latency"},
		{"alice", "the bus is the interface of this hardware"}, // "bus" = interconnect here
		{"bob", "the doctor will scan the patient for an infection"},
		{"bob", "the nurse has the vaccine dose for the patient"},
		{"carol", "the team has a goal in the league and the fans have the victory"},
	}
	for _, m := range messages {
		res, err := sys.TransmitText(m.user, text.Tokenize(m.text))
		if err != nil {
			log.Fatalf("quickstart: transmit: %v", err)
		}
		fmt.Printf("%-6s sent    : %s\n", m.user, m.text)
		fmt.Printf("       domain  : %s (selected by sticky model selection)\n",
			sys.Corpus.Domains[res.SelectedDomain].Name)
		fmt.Printf("       restored: %s\n", text.Join(res.RestoredWords))
		fmt.Printf("       payload : %d bytes   latency: %.2f ms   cache hit: %v\n\n",
			res.PayloadBytes, float64(res.Latency)/float64(time.Millisecond), res.EncCacheHit)
	}

	st := sys.Sender.CacheStats()
	fmt.Printf("sender edge cache: %.0f%% hits, %d models resident\n",
		100*st.HitRate(), sys.Sender.Cache().Len())
}
