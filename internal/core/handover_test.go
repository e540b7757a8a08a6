package core

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
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
				res, err := transmitReq(s, req)
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

// TestImportRejectsMalformedHandoverModels corrupts one model payload of an
// otherwise well-formed export — behind a good model, so an import that
// installs payloads one by one has already landed something when it meets
// the bad one. The import must fail with a *BadHandoverError and leave the
// target without any of the user's state: the pusher keeps its copy on
// error, and a half-installed export forks the user across two members.
// Restored, the same export installs whole.
func TestImportRejectsMalformedHandoverModels(t *testing.T) {
	cfg := userNoiseConfig()
	const user = "mallory"
	src, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, src)
	names := src.Corpus.Names()[:2]
	for _, srv := range []*edge.Server{src.Sender, src.Receiver} {
		for _, domain := range names {
			if _, _, err := srv.Personalize(domain, user); err != nil {
				t.Fatal(err)
			}
		}
	}
	good := fl.Transaction{SurfaceIDs: []int{1, 2}, ConceptIDs: []int{0, -1}, Decoded: []int{0, 0}}
	src.Sender.ImportUserBuffers(user, []edge.BufferState{{Domain: names[0], Txs: []fl.Transaction{good}}})
	exp, err := src.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	exp.NoiseSeq = 99
	if len(exp.Sender) != 2 || len(exp.Receiver) != 2 || len(exp.Buffers) != 1 {
		t.Fatalf("fixture exported %d sender models, %d receiver models, %d buffers; want 2, 2, 1",
			len(exp.Sender), len(exp.Receiver), len(exp.Buffers))
	}
	// A well-formed payload of the wrong shape: the decoder tensors alone.
	model, _, err := src.Sender.Personalize(names[1], user)
	if err != nil {
		t.Fatal(err)
	}
	decoderOnly, err := model.Codec.DecoderParams().AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		victim  *edge.ExportedModel
		corrupt func(params []byte) []byte
	}{
		{"second sender model truncated", exp.Sender[1], func(p []byte) []byte { return p[:len(p)/2] }},
		{"second receiver model truncated", exp.Receiver[1], func(p []byte) []byte { return p[:len(p)/2] }},
		{"second sender model of the wrong shape", exp.Sender[1], func([]byte) []byte { return decoderOnly }},
		// Well-formed and of the right shape, one weight (the payload's
		// last value) NaN: installed, the model would decode every token
		// to concept 0.
		{"second sender model holding a NaN weight", exp.Sender[1], func(p []byte) []byte {
			q := append([]byte(nil), p...)
			binary.LittleEndian.PutUint64(q[len(q)-8:], math.Float64bits(math.NaN()))
			return q
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prefetchAll(t, dst)
			intact := tc.victim.Params
			tc.victim.Params = tc.corrupt(intact)
			err = dst.ImportUserFromHandover(exp)
			tc.victim.Params = intact
			if err == nil {
				t.Fatal("corrupted export accepted")
			}
			if got := dst.Sender.UserDomains(user); len(got) != 0 {
				t.Fatalf("rejected import installed sender models for %v", got)
			}
			if got := dst.Receiver.UserDomains(user); len(got) != 0 {
				t.Fatalf("rejected import installed receiver models for %v", got)
			}
			if seq := dst.userState(user).noiseSeq; seq != 0 {
				t.Fatalf("rejected import advanced the noise sequence to %d", seq)
			}
			if got := dst.Sender.ExportUserBuffers(user); len(got) != 0 {
				t.Fatalf("rejected import installed buffers %+v", got)
			}
			var bad *BadHandoverError
			if !errors.As(err, &bad) {
				t.Fatalf("import error = %v, want a *BadHandoverError", err)
			}
			if bad.User != user || bad.Domain != tc.victim.Domain {
				t.Fatalf("error names %s/%s, want %s/%s", bad.User, bad.Domain, user, tc.victim.Domain)
			}

			if err := dst.ImportUserFromHandover(exp); err != nil {
				t.Fatalf("intact export rejected: %v", err)
			}
			if got := dst.Sender.UserDomains(user); len(got) != 2 {
				t.Fatalf("intact import installed sender models for %v, want 2 domains", got)
			}
			if seq := dst.userState(user).noiseSeq; seq != 99 {
				t.Fatalf("intact import left the noise sequence at %d, want 99", seq)
			}
		})
	}
}

// TestImportRejectsInconsistentHandoverModels covers the exports whose
// payloads all parse but which cannot be installed whole: a model that is
// not the export's user's, a second model for a domain, and a model older
// than the one the target already holds — the refusal that used to come
// from the install itself, after the models ahead of it had landed. Each
// sits behind good models and must fail the import before any of them is
// installed.
func TestImportRejectsInconsistentHandoverModels(t *testing.T) {
	cfg := userNoiseConfig()
	const user = "mallory"
	src, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, src)
	names := src.Corpus.Names()[:2]
	for _, srv := range []*edge.Server{src.Sender, src.Receiver} {
		for _, domain := range names {
			if _, _, err := srv.Personalize(domain, user); err != nil {
				t.Fatal(err)
			}
		}
	}
	exp, err := src.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	const heldVersion = 5
	for _, tc := range []struct {
		name   string
		mutate func(exp *UserExport)
		domain string
	}{
		{"second sender model of another user", func(e *UserExport) { e.Sender[1].User = "eve" }, names[1]},
		{"two receiver models for one domain", func(e *UserExport) { e.Receiver[1].Domain = names[0] }, names[0]},
		{"second receiver model older than the one held", func(e *UserExport) { e.Receiver[1].Version = heldVersion - 1 }, names[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			prefetchAll(t, dst)
			held, _, err := dst.Receiver.Personalize(names[1], user)
			if err != nil {
				t.Fatal(err)
			}
			held.Version = heldVersion
			broken := &UserExport{User: exp.User, NoiseSeq: 99}
			for _, m := range exp.Sender {
				c := *m
				broken.Sender = append(broken.Sender, &c)
			}
			for _, m := range exp.Receiver {
				c := *m
				c.Version = heldVersion
				broken.Receiver = append(broken.Receiver, &c)
			}
			tc.mutate(broken)
			err = dst.ImportUserFromHandover(broken)
			var bad *BadHandoverError
			if !errors.As(err, &bad) || bad.User != user || bad.Domain != tc.domain {
				t.Fatalf("import error = %v, want a *BadHandoverError for %s/%s", err, user, tc.domain)
			}
			if got := dst.Sender.UserDomains(user); len(got) != 0 {
				t.Fatalf("rejected import installed sender models for %v", got)
			}
			if got := dst.Receiver.UserDomains(user); len(got) != 1 || held.Version != heldVersion {
				t.Fatalf("rejected import touched the receiver: domains %v, held version %d", got, held.Version)
			}
			if seq := dst.userState(user).noiseSeq; seq != 0 {
				t.Fatalf("rejected import advanced the noise sequence to %d", seq)
			}
		})
	}
}

// TestRefusedImportLeavesUsers pushes a user to a member that holds a newer
// individual model of theirs: once with no record of the user (it must not
// appear in Users()), once with one (it must stay).
func TestRefusedImportLeavesUsers(t *testing.T) {
	cfg := userNoiseConfig()
	const user = "mallory"
	src, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, src)
	domain := src.Corpus.Names()[0]
	if _, _, err := src.Receiver.Personalize(domain, user); err != nil {
		t.Fatal(err)
	}
	exp, err := src.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	for _, known := range []bool{false, true} {
		dst, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, dst)
		held, _, err := dst.Receiver.Personalize(domain, user)
		if err != nil {
			t.Fatal(err)
		}
		held.Version = exp.Receiver[0].Version + 1
		if known {
			dst.userState(user)
		}
		before := dst.Users()
		if known != slices.Contains(before, user) {
			t.Fatalf("record %v: Users() = %v before the push", known, before)
		}
		var bad *BadHandoverError
		if err := dst.ImportUserFromHandover(exp); !errors.As(err, &bad) {
			t.Fatalf("record %v: import error = %v, want a *BadHandoverError", known, err)
		}
		if got := dst.Users(); !slices.Equal(got, before) {
			t.Fatalf("record %v: refused import changed Users() from %v to %v", known, before, got)
		}
	}
}
