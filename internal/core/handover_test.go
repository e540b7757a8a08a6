package core

import (
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/fl"
)

// TestImportRejectsMalformedHandoverBuffers pushes every malformed
// transaction-buffer shape a peer could put on the wire. Each must fail the
// import with a *BadHandoverError and install nothing — and the user's
// buffer must then fill and fire a clean update on this system. Installed
// unchecked, each of these shapes panicked the trainer at that update.
func TestImportRejectsMalformedHandoverBuffers(t *testing.T) {
	cfg := userNoiseConfig() // BufferThreshold 8, oracle selection
	corp := corpus.Build()
	const domain = 2
	d := corp.Domains[domain]
	good := fl.Transaction{SurfaceIDs: []int{1, 2}, ConceptIDs: []int{0, -1}, Decoded: []int{0, 0}}
	tx := func(surfaces, concepts []int) []fl.Transaction {
		return []fl.Transaction{good, {SurfaceIDs: surfaces, ConceptIDs: concepts, Decoded: []int{0, 0}}}
	}
	cases := []struct {
		name string
		buf  edge.BufferState
	}{
		{"unknown domain", edge.BufferState{Domain: "no-such-domain", Txs: []fl.Transaction{good}}},
		{"more surfaces than concepts", edge.BufferState{Domain: d.Name, Txs: tx([]int{1, 2}, []int{0})}},
		{"more concepts than surfaces", edge.BufferState{Domain: d.Name, Txs: tx([]int{1}, []int{0, 1})}},
		{"surface past the vocabulary", edge.BufferState{Domain: d.Name, Txs: tx([]int{1, d.VocabSize()}, []int{0, 1})}},
		{"negative surface", edge.BufferState{Domain: d.Name, Txs: tx([]int{-1, 1}, []int{0, 1})}},
		{"concept past the concept set", edge.BufferState{Domain: d.Name, Txs: tx([]int{1, 2}, []int{0, d.NumConcepts()})}},
		{"concept below -1", edge.BufferState{Domain: d.Name, Txs: tx([]int{1, 2}, []int{-2, 0})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prefetchAll(t, s)
			// A well-formed buffer rides in front: all-or-nothing means it
			// must not be installed either.
			exp := &UserExport{User: "mallory", NoiseSeq: 99, Buffers: []edge.BufferState{
				{Domain: corp.Domains[0].Name, Txs: []fl.Transaction{good}},
				tc.buf,
			}}
			err = s.ImportUserFromHandover(exp)
			var bad *BadHandoverError
			if !errors.As(err, &bad) {
				t.Fatalf("import error = %v, want a *BadHandoverError", err)
			}
			if bad.User != "mallory" || bad.Domain != tc.buf.Domain {
				t.Fatalf("error names %s/%s, want mallory/%s", bad.User, bad.Domain, tc.buf.Domain)
			}
			if seq := s.userState("mallory").noiseSeq; seq != 0 {
				t.Fatalf("rejected import advanced the noise sequence to %d", seq)
			}
			for _, dom := range corp.Domains {
				if buf := s.Sender.Buffer(dom.Name, "mallory"); buf != nil {
					t.Fatalf("rejected import installed a %s buffer of %d transactions", dom.Name, buf.Len())
				}
			}
			fired := false
			for _, req := range oracleRequests(corp, "mallory", domain, cfg.BufferThreshold, 504) {
				res, err := s.Transmit(req)
				if err != nil {
					t.Fatal(err)
				}
				if res.UpdateErr != nil {
					t.Fatalf("update failed: %v", res.UpdateErr)
				}
				fired = fired || res.UpdateFired
			}
			if !fired {
				t.Fatal("the buffer filled but no update fired")
			}
		})
	}
}
