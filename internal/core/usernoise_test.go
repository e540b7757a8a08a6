package core

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/trace"
)

// userNoiseConfig is a fast system for the noise tests: oracle selection
// (no selector state, so every divergence in these tests is a noise
// divergence), pinned generals, shared pretrained codecs.
func userNoiseConfig() Config {
	cfg := batchTestConfig()
	cfg.Selector = SelectorOracle
	return cfg
}

// oracleRequests builds a fixed ground-truth message stream for user, all
// in one domain so the individual-model update pipeline engages.
func oracleRequests(corp *corpus.Corpus, user string, domain, n int, seed uint64) []trace.Request {
	gen := corpus.NewGenerator(corp, mat.NewRNG(seed))
	reqs := make([]trace.Request, n)
	for i := range reqs {
		reqs[i] = trace.Request{User: user, Msg: gen.Message(domain, nil)}
	}
	return reqs
}

// noisyDigest folds the noise-dependent fields too: RestoredWords is the
// only Result field that depends on channel-noise draws, so including it
// makes the digest sensitive to the exact noise realization.
func noisyDigest(results []*Result) string {
	var out string
	for _, r := range results {
		out += fmt.Sprintf("%d|%v|%g|%d|%d|%d\n",
			r.SelectedDomain, r.RestoredWords, r.Mismatch,
			r.PayloadBytes, r.Symbols, r.Latency.Nanoseconds())
	}
	return out
}

// TestPerUserNoiseInterleavingInvariance checks the defining property of
// per-user noise: one user's complete result stream — noise realizations
// included — is bit-identical whether the user runs alone or interleaved
// with arbitrary other traffic.
func TestPerUserNoiseInterleavingInvariance(t *testing.T) {
	mkSys := func() *System {
		s, err := NewSystem(userNoiseConfig())
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, s)
		return s
	}
	alice := oracleRequests(corpus.Build(), "alice", 0, 12, 501)
	bob := oracleRequests(corpus.Build(), "bob", 1, 12, 502)

	// Run 1: alice alone.
	solo := mkSys()
	var soloResults []*Result
	for i := range alice {
		res, err := solo.Transmit(alice[i])
		if err != nil {
			t.Fatal(err)
		}
		soloResults = append(soloResults, res)
	}

	// Run 2: alice interleaved with bob, strictly alternating, so every
	// alice message has a different global arrival position than in run 1.
	mixed := mkSys()
	var mixedResults []*Result
	for i := range alice {
		if _, err := mixed.Transmit(bob[i]); err != nil {
			t.Fatal(err)
		}
		res, err := mixed.Transmit(alice[i])
		if err != nil {
			t.Fatal(err)
		}
		mixedResults = append(mixedResults, res)
	}

	if a, b := noisyDigest(soloResults), noisyDigest(mixedResults); a != b {
		t.Fatalf("alice's stream depends on interleaving:\nsolo:\n%s\nmixed:\n%s", a, b)
	}
}

// TestPerUserNoiseHandoverContinuity simulates the mesh handover: run a
// user's first half on one system, export their serving state, import it
// into a second identically-seeded system, and run the second half there.
// The second half must be bit-identical to an uninterrupted reference run
// — the exported noise sequence and individual models make the new owner
// continue exactly where the old one stopped. The split lands on a
// buffer-threshold boundary, so the comparison does not lean on pending
// transactions riding along; internal/mesh's TestMoveKeepsUpdateThreshold
// covers a move with a half-full buffer.
func TestPerUserNoiseHandoverContinuity(t *testing.T) {
	cfg := userNoiseConfig() // BufferThreshold 8 via batchTestConfig
	mkSys := func(name string) *System {
		c := cfg
		c.SenderName = name
		s, err := NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, s)
		return s
	}
	reqs := oracleRequests(corpus.Build(), "carol", 2, 16, 503)
	split := 8 // buffer threshold boundary: update fired, buffer empty

	// Reference: one system serves all 16 messages.
	ref := mkSys("node-0")
	var refTail []*Result
	for i := range reqs {
		res, err := ref.Transmit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if i >= split {
			refTail = append(refTail, res)
		}
	}

	// Handover: first half on node 0, export/import, second half on node 1.
	old := mkSys("node-0")
	for i := 0; i < split; i++ {
		if _, err := old.Transmit(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	exp, err := old.ExportUserForHandover("carol")
	if err != nil {
		t.Fatal(err)
	}
	if exp.NoiseSeq != uint64(split) {
		t.Fatalf("exported NoiseSeq = %d, want %d", exp.NoiseSeq, split)
	}
	if len(exp.Sender) == 0 || len(exp.Receiver) == 0 {
		t.Fatalf("export carried no individual models: sender %d, receiver %d (update never fired?)",
			len(exp.Sender), len(exp.Receiver))
	}
	if exp.SenderBytes() <= 0 {
		t.Fatalf("SenderBytes = %d", exp.SenderBytes())
	}
	neu := mkSys("node-1")
	if err := neu.ImportUserFromHandover(exp); err != nil {
		t.Fatal(err)
	}
	old.DropUserAfterHandover(exp)
	for _, m := range exp.Sender {
		if _, _, err := old.Sender.AppendUserModel(nil, m.Domain, "carol"); err == nil {
			t.Fatalf("sender model %s/carol still present after drop", m.Domain)
		}
	}
	var newTail []*Result
	for i := split; i < len(reqs); i++ {
		res, err := neu.Transmit(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		newTail = append(newTail, res)
	}

	if a, b := noisyDigest(refTail), noisyDigest(newTail); a != b {
		t.Fatalf("post-handover stream diverged from uninterrupted reference:\nref:\n%s\nnew:\n%s", a, b)
	}
}

// TestNoiseSeedDerivation pins the basic properties of the derivation:
// deterministic, and distinct across users, sequence numbers and system
// seeds.
func TestNoiseSeedDerivation(t *testing.T) {
	base := noiseSeed(1, 100, 0)
	if base != noiseSeed(1, 100, 0) {
		t.Fatal("noiseSeed not deterministic")
	}
	for name, other := range map[string]uint64{
		"user": noiseSeed(1, 101, 0),
		"seq":  noiseSeed(1, 100, 1),
		"seed": noiseSeed(2, 100, 0),
	} {
		if other == base {
			t.Fatalf("noiseSeed collision when only %s differs", name)
		}
	}
}
