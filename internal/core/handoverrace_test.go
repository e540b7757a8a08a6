package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
)

// hashNodeFreeResult digests the Result fields that must not depend on
// which cluster node served the request or on what its cache held at
// the time: the selection, the restored text (per-user noise makes it
// deterministic in cluster mode), the channel payload, and the
// update-process outcomes. Cache hits and latency stay out — they
// legitimately differ with the interleaving of other users' fetches.
func hashNodeFreeResult(h hash.Hash, res *Result) {
	fmt.Fprintf(h, "%d|%v|%g|%d|%d|%t|%t|%d\n",
		res.SelectedDomain, res.RestoredWords, res.Mismatch,
		res.PayloadBytes, res.Symbols,
		res.UsedIndividual, res.UpdateFired, res.UpdateBytes)
}

// moverRun drives one user through messages on sys, moving them to a new
// cell after every moveEvery-th message — between that user's own
// transmits, so the move races whatever requests other users have in
// flight, never the mover's own. It returns the stream digest and the
// number of moves that changed nodes.
func moverRun(t *testing.T, sys *System, user string, messages [][]string, moveEvery int) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	moved, cell := 0, 0
	var sawIndividual bool
	for i, words := range messages {
		if i > 0 && i%moveEvery == 0 {
			cell++
			res, err := sys.MoveUser(user, cell)
			if err != nil {
				t.Errorf("move at message %d: %v", i, err)
				return 0, 0
			}
			if res.Moved {
				moved++
			}
		}
		res, err := sys.TransmitText(user, words)
		if err != nil {
			t.Errorf("message %d: %v", i, err)
			return 0, 0
		}
		hashNodeFreeResult(h, res)
		sawIndividual = sawIndividual || res.UsedIndividual
	}
	if !sawIndividual {
		t.Error("mover never served from an individual model: handovers migrated nothing")
	}
	return h.Sum64(), moved
}

// TestHandoverRacesConcurrentTraffic pins the interaction between mobility
// handover and concurrent serving in cluster mode: a user moved while
// other users transmit concurrently must keep completing every request on
// exactly one node, with the stream digest of serial serving. Per-user
// noise (forced in cluster mode) is what makes that comparison exact.
func TestHandoverRacesConcurrentTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("race comparison is slow; run without -short")
	}
	const (
		mover              = "mover"
		moverMsgs          = 40
		moveEvery          = 10
		bgUsers, bgPerUser = 5, 40
	)
	corp := corpus.Build()
	moverStream := make([][]string, moverMsgs)
	gen := corpus.NewGenerator(corp, mat.NewRNG(5150))
	for i := range moverStream {
		moverStream[i] = gen.Message(0, nil).Words
	}
	bgStreams := batchUserMessages(corp, bgUsers, bgPerUser)

	cfg := batchTestConfig()
	cfg.Nodes = 3

	// Reference: same cluster, mover alone, serial.
	refSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, refSys)
	refDigest, refMoves := moverRun(t, refSys, mover, moverStream, moveEvery)
	if refMoves == 0 {
		t.Fatal("move schedule never changed nodes; the test exercises nothing")
	}

	// Candidate: background users transmitting throughout the mover's
	// handovers.
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, sys)
	var wg sync.WaitGroup
	for u := range bgStreams {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("bg%d", u)
			for i, words := range bgStreams[u] {
				if _, err := sys.TransmitText(user, words); err != nil {
					t.Errorf("background %s message %d: %v", user, i, err)
					return
				}
			}
		}(u)
	}
	digest, moves := moverRun(t, sys, mover, moverStream, moveEvery)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if moves != refMoves {
		t.Fatalf("racing run moved nodes %d times, reference %d: move schedule is not deterministic", moves, refMoves)
	}
	if digest != refDigest {
		t.Fatalf("mover stream diverged under handover-vs-traffic racing: %016x != %016x", digest, refDigest)
	}
	if got := sys.Cluster.Stats().Handovers; got != int64(moves) {
		t.Fatalf("cluster counted %d handovers, client saw %d node changes", got, moves)
	}

	// "Exactly one node": after the run the mover's individual models live
	// only on the node currently routing them — every handover moved the
	// state, none duplicated or stranded it.
	owner := sys.Cluster.Route(mover)
	holders := 0
	for i := 0; i < sys.Cluster.NumNodes(); i++ {
		n := sys.Cluster.Node(i)
		if len(n.Edge().UserDomains(mover)) == 0 {
			continue
		}
		holders++
		if n.Name() != owner.Name() {
			t.Errorf("node %s holds the mover's individual models but %s routes them", n.Name(), owner.Name())
		}
	}
	if holders != 1 {
		t.Fatalf("the mover's individual models live on %d nodes, want exactly 1", holders)
	}
}
