package mesh_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/selection"
	"repro/internal/semantic"
	"repro/internal/trace"
)

// fixedDomain is the tests' oracle selector: it selects the domain a test
// last set, whatever the words say.
type fixedDomain struct{ domain int }

func (f *fixedDomain) Select([]string) int { return f.domain }
func (f *fixedDomain) Feedback(float64)    {}

// TestMoveOverridesRouting checks the client/member agreement a move
// rests on: the serving member resolves a cell to a member, the router
// mirrors it, and from then on the user routes there instead of to their
// ring slot.
func TestMoveOverridesRouting(t *testing.T) {
	mm := newMemMesh(t, 3, nil, nil)
	user := "roamer"
	home := mm.router.Owner(user)
	if got := mm.members[0].node.Owner(user); got != home {
		t.Fatalf("router hashes %s to member %d, the mesh to %d", user, home, got)
	}
	target := (home + 1) % 3
	h := mm.move(t, user, target)
	if want := fmt.Sprintf("node-%d", target); !h.Moved || h.From != fmt.Sprintf("node-%d", home) || h.To != want {
		t.Fatalf("unexpected handover result %+v", h)
	}
	if got := mm.router.Owner(user); got != target {
		t.Fatalf("after the move the user routes to %d, want %d", got, target)
	}
	// Moving to the same cell is a no-op, not a handover.
	if h := mm.move(t, user, target); h.Moved {
		t.Fatalf("same-cell move reported a handover: %+v", h)
	}
	var handovers int64
	for _, m := range mm.members {
		out, _ := m.node.HandoverStats()
		handovers += out
	}
	if handovers != 1 {
		t.Fatalf("handovers = %d, want 1", handovers)
	}
	// Cell indices wrap modulo the live member count, negatives included.
	mm.move(t, user, 3+home)
	if got := mm.router.Owner(user); got != home {
		t.Fatalf("wrapped move routed to %d, want %d", got, home)
	}
	mm.move(t, user, target-3)
	if got := mm.router.Owner(user); got != target {
		t.Fatalf("negative cell routed to %d, want %d", got, target)
	}
}

// TestHandoverPushOnlyFromMembership: a member installs models and user
// state only for its static peers. A real, importable export signed by a
// name the mesh has never heard of — or by the target itself — is refused
// with *NotPeerError and leaves the target exactly as it was; the same
// payload signed by the peer that owns the user is taken.
func TestHandoverPushOnlyFromMembership(t *testing.T) {
	mm := newMemMesh(t, 3, nil, nil)
	mm.warm(t)
	const user = "pushed"
	mm.personalize(t, user, 0, 61)
	from := mm.owner(user)
	target := mm.members[(from.node.Self().Index+1)%3]
	exp, err := from.sys.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	before := userState(t, target.sys, user)
	for _, signer := range []string{"node-9", "", target.node.Self().Name} {
		err := target.node.HandleHandoverPush(mesh.ExportToWire(exp, signer))
		var notPeer *mesh.NotPeerError
		if !errors.As(err, &notPeer) || notPeer.From != signer {
			t.Fatalf("push signed %q: %v, want a *NotPeerError naming it", signer, err)
		}
		if after := userState(t, target.sys, user); after != before {
			t.Fatalf("a push refused for its signer %q changed the member's state", signer)
		}
	}
	if in := target.node.Stats().HandoversIn; in != 0 {
		t.Fatalf("refused pushes counted as %d handovers in", in)
	}
	if err := target.node.HandleHandoverPush(mesh.ExportToWire(exp, from.node.Self().Name)); err != nil {
		t.Fatalf("push signed by the owning peer refused: %v", err)
	}
	if after := userState(t, target.sys, user); after == before {
		t.Fatal("an accepted push installed nothing")
	}
}

// TestHandoverGoldenRoundTrip is the bit-identity check of a handover:
// the new member's exported model bytes, on both edge sides, and its
// encode outputs equal the old member's exactly, and the old member keeps
// nothing.
func TestHandoverGoldenRoundTrip(t *testing.T) {
	mm := newMemMesh(t, 2, nil, nil)
	mm.warm(t)
	const user, domain = "golden", "it"
	mm.personalize(t, user, 0, 51)
	from := mm.owner(user)
	words := messages(0, 1, 99)[0]

	preSender, _, err := from.sys.Sender.AppendUserModel(nil, domain, user)
	if err != nil {
		t.Fatal(err)
	}
	preReceiver, _, err := from.sys.Receiver.AppendUserModel(nil, domain, user)
	if err != nil {
		t.Fatal(err)
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	preEnc, err := from.sys.Sender.Encode(sc, domain, user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !preEnc.Individual {
		t.Fatal("pre-handover encode did not use the individual model")
	}
	preFeatures := append([]float64(nil), preEnc.Features.Data...)

	h := mm.move(t, user, mm.router.Owner(user)+1)
	if !h.Moved || h.Models != 1 || h.MigratedBytes != preSender.SizeBytes() {
		t.Fatalf("handover %+v, want 1 model / %d bytes", h, preSender.SizeBytes())
	}
	if h.LatencyMs <= 0 {
		t.Fatal("handover paid no mesh latency")
	}
	if s, r := from.sys.Sender.UserDomains(user), from.sys.Receiver.UserDomains(user); len(s)+len(r) != 0 {
		t.Fatalf("source member still holds %v / %v after the handover", s, r)
	}

	to := mm.owner(user)
	if to == from {
		t.Fatal("router did not follow the move")
	}
	postSender, _, err := to.sys.Sender.AppendUserModel(nil, domain, user)
	if err != nil {
		t.Fatal(err)
	}
	postReceiver, _, err := to.sys.Receiver.AppendUserModel(nil, domain, user)
	if err != nil {
		t.Fatal(err)
	}
	if postSender.Version != preSender.Version || postReceiver.Version != preReceiver.Version {
		t.Fatalf("versions changed across the handover: sender %d -> %d, receiver %d -> %d",
			preSender.Version, postSender.Version, preReceiver.Version, postReceiver.Version)
	}
	if !bytes.Equal(postSender.Params, preSender.Params) || !bytes.Equal(postReceiver.Params, preReceiver.Params) {
		t.Fatal("exported parameter bytes differ across the handover")
	}
	postEnc, err := to.sys.Sender.Encode(sc, domain, user, words)
	if err != nil {
		t.Fatal(err)
	}
	if !postEnc.Individual {
		t.Fatal("post-handover encode did not use the migrated individual model")
	}
	if !reflect.DeepEqual(postEnc.Features.Data, preFeatures) {
		t.Fatal("encode features differ across the handover")
	}
}

// TestMoveCarriesPendingTransactions checks a handover moves the user's
// half-full update buffers along with their models: the source keeps
// nothing of the user, and the target holds the same transactions in the
// same order — also for a user who has buffered traffic but no individual
// model yet.
func TestMoveCarriesPendingTransactions(t *testing.T) {
	for _, tc := range []struct {
		name         string
		personalized bool
	}{{"with an individual model", true}, {"before any individual model", false}} {
		t.Run(tc.name, func(t *testing.T) {
			mm := newMemMesh(t, 2, nil, nil)
			mm.warm(t)
			user := "pending"
			if tc.personalized {
				mm.personalize(t, user, 0, 61)
			}
			from := mm.owner(user)
			pre := from.sys.Sender.ExportUserBuffers(user)
			for _, traffic := range []struct {
				domain string
				n      int
			}{{"it", 5}, {"medical", 3}} {
				d := from.sys.Corpus.Domain(traffic.domain)
				for _, words := range messages(d.Index, traffic.n, 77) {
					if _, _, err := from.sys.Sender.RecordTransaction(nil, traffic.domain, user, words, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := from.sys.Sender.ExportUserBuffers(user)
			buffered := 0
			for _, b := range want {
				buffered += len(b.Txs)
			}
			for _, b := range pre {
				buffered -= len(b.Txs)
			}
			if buffered != 8 {
				t.Fatalf("fixture buffered %d new transactions, want 5 it + 3 medical", buffered)
			}
			mm.move(t, user, mm.router.Owner(user)+1)
			for _, d := range from.sys.Corpus.Domains {
				if buf := from.sys.Sender.Buffer(d.Name, user); buf != nil {
					t.Fatalf("source still holds a %s buffer of %d transactions after the move", d.Name, buf.Len())
				}
			}
			if got := mm.owner(user).sys.Sender.ExportUserBuffers(user); !reflect.DeepEqual(got, want) {
				t.Fatalf("target buffers after the move = %+v, want %+v", got, want)
			}
		})
	}
}

// TestMoveKeepsUpdateThreshold checks a handover carries the user's
// half-full update buffer: a user moved mid-stream fires their
// individual-model update at the same message index as a twin who never
// moved. With the buffer stranded on the old member the new one would
// count from zero and the update would fire late.
func TestMoveKeepsUpdateThreshold(t *testing.T) {
	const user, threshold = "roamer", 8
	// firedAt streams one domain's messages and returns the index of the
	// first that fired an update, moving the user before message moveAt.
	firedAt := func(moveAt int) int {
		mm := newMemMesh(t, 2, nil, nil)
		mm.warm(t)
		fired := -1
		for i, words := range messages(0, 2*threshold, 91) {
			if i == moveAt {
				if h := mm.move(t, user, mm.router.Owner(user)+1); !h.Moved {
					t.Fatal("fixture move did not change the serving member")
				}
			}
			if res := mm.owner(user).serve(t, user, words); res.UpdateFired && fired < 0 {
				fired = i
			}
		}
		return fired
	}
	stayed, moved := firedAt(-1), firedAt(threshold/2)
	if stayed != threshold-1 {
		t.Fatalf("unmoved user's update fired at message %d, want %d", stayed, threshold-1)
	}
	if moved != stayed {
		t.Fatalf("moved user's update fired at message %d, the unmoved twin's at %d", moved, stayed)
	}
}

// TestStatsOccupancy checks every user is counted on exactly one member:
// the one that last served them, moves included.
func TestStatsOccupancy(t *testing.T) {
	mm := newMemMesh(t, 2, nil, nil)
	mm.warm(t)
	words := messages(0, 1, 5)[0]
	for u := 0; u < 10; u++ {
		user := fmt.Sprintf("u%02d", u)
		mm.owner(user).serve(t, user, words)
	}
	mm.move(t, "u00", mm.router.Owner("u00")+1)
	total := 0
	for i, m := range mm.members {
		users := m.node.Stats().Users
		if users == 0 {
			t.Errorf("member %d serves nobody: the ring put all ten users on one member", i)
		}
		total += users
	}
	if total != 10 {
		t.Fatalf("occupancy sums to %d, want 10", total)
	}
}

// TestWorkloadWithMobility runs a mobile trace end to end through a
// 3-member mesh: mobility events must produce handovers, cooperative
// fetches must happen (only member 0 is warmed), and two identically
// seeded meshes must agree result for result.
func TestWorkloadWithMobility(t *testing.T) {
	var oracle fixedDomain // every user on every member: a serial driver steers it
	shareOracle := func(_ int, _ *mesh.Config, sys *core.Config) {
		sys.Selector = func(*selection.NaiveBayes, int, *mat.RNG) selection.Selector { return &oracle }
	}
	type outcome struct {
		results              []core.Result
		wordAcc              float64
		handovers, migrated  int64
		neighborHits, origin int64
	}
	var w *trace.Workload
	run := func() outcome {
		mm := newMemMesh(t, 3, shareOracle, nil)
		mm.warm(t, 0)
		for _, m := range mm.members[1:] {
			if _, err := m.sys.Receiver.Prefetch(m.sys.Corpus.Names()); err != nil {
				t.Fatal(err)
			}
		}
		if w == nil {
			w = trace.Generate(mm.members[0].sys.Corpus, trace.Config{
				Users: 6, Messages: 300, Cells: 3, MobilityRate: 0.08, Seed: 21,
			})
		}
		var out outcome
		next := 0
		for _, req := range w.Requests {
			for ; next < len(w.Moves) && w.Moves[next].Seq <= req.Seq; next++ {
				mm.move(t, w.Moves[next].User, w.Moves[next].Cell)
			}
			m := mm.owner(req.User)
			oracle.domain = req.Msg.DomainIndex
			res, err := m.sys.TransmitText(req.User, req.Msg.Words)
			if err != nil {
				t.Fatalf("request %d: %v", req.Seq, err)
			}
			out.results = append(out.results, *res)
			d := m.sys.Corpus.Domains[req.Msg.DomainIndex]
			canonical := make([]string, len(req.Msg.ConceptIDs))
			for i, ci := range req.Msg.ConceptIDs {
				canonical[i] = d.Canonical(ci)
			}
			out.wordAcc += semantic.WordAccuracy(res.RestoredWords, canonical)
		}
		for _, m := range mm.members {
			h, b := m.node.HandoverStats()
			out.handovers += h
			out.migrated += b
			ns := m.node.Stats()
			out.neighborHits += ns.NeighborHits
			out.origin += ns.OriginFetches
		}
		return out
	}
	a := run()
	if len(w.Moves) == 0 {
		t.Fatal("workload has no mobility events")
	}
	if a.handovers == 0 || a.migrated == 0 {
		t.Fatalf("mobile workload migrated nothing: %d handovers, %d bytes", a.handovers, a.migrated)
	}
	if a.neighborHits == 0 {
		t.Fatal("cold members never fetched cooperatively")
	}
	if acc := a.wordAcc / float64(len(w.Requests)); acc < 0.5 {
		t.Fatalf("word accuracy collapsed across handovers: %.3f", acc)
	}

	// An identical twin must agree bit for bit, handovers included.
	b := run()
	for i := range a.results {
		x, y := a.results[i], b.results[i]
		if x.Mismatch != y.Mismatch || x.PayloadBytes != y.PayloadBytes || x.Latency != y.Latency ||
			x.SelectedDomain != y.SelectedDomain || !reflect.DeepEqual(x.RestoredWords, y.RestoredWords) {
			t.Fatalf("result %d diverged across identical meshes", i)
		}
	}
	if a.handovers != b.handovers || a.migrated != b.migrated || a.neighborHits != b.neighborHits || a.origin != b.origin {
		t.Fatalf("mesh accounting diverged: %+v vs %+v", a, b)
	}
}

// moverRun drives one user through messages, moving them to the next cell
// after every moveEvery-th message — between that user's own transmits,
// so the move races whatever other users have in flight, never the
// mover's own requests. It digests the Result fields that must not depend
// on which member served the request or on what else ran meanwhile, and
// returns the number of moves that changed members.
func moverRun(t *testing.T, mm *memMesh, user string, stream [][]string, moveEvery int) (uint64, int) {
	t.Helper()
	h := fnv.New64a()
	moved, cell := 0, 0
	individual := false
	for i, words := range stream {
		if i > 0 && i%moveEvery == 0 {
			cell++
			if mm.move(t, user, cell).Moved {
				moved++
			}
		}
		res := mm.owner(user).serve(t, user, words)
		fmt.Fprintf(h, "%d|%v|%g|%d|%d|%t|%t|%d\n",
			res.SelectedDomain, res.RestoredWords, res.Mismatch, res.PayloadBytes, res.Symbols,
			res.UsedIndividual, res.UpdateFired, res.UpdateBytes)
		individual = individual || res.UsedIndividual
	}
	if !individual {
		t.Error("mover never served from an individual model: handovers migrated nothing")
	}
	return h.Sum64(), moved
}

// TestHandoverRacesConcurrentTraffic pins the interaction between mobility
// handover and concurrent serving: a user moved while other users transmit
// on every member must keep completing every request on exactly one
// member, with the stream digest of serial serving — noise included, which
// is what per-user noise buys.
func TestHandoverRacesConcurrentTraffic(t *testing.T) {
	const (
		mover              = "mover"
		moveEvery          = 10
		bgUsers, bgPerUser = 5, 40
	)
	stream := messages(0, 40, 5150)

	// Reference: the same mesh, the mover alone, serial.
	ref := newMemMesh(t, 3, nil, nil)
	ref.warm(t)
	refDigest, refMoves := moverRun(t, ref, mover, stream, moveEvery)
	if refMoves == 0 {
		t.Fatal("move schedule never changed members; the test exercises nothing")
	}

	// Candidate: background users transmitting at their ring owners
	// throughout the mover's handovers.
	mm := newMemMesh(t, 3, nil, nil)
	mm.warm(t)
	var wg sync.WaitGroup
	for u := 0; u < bgUsers; u++ {
		user := fmt.Sprintf("bg%d", u)
		m, words := mm.owner(user), messages(u%len(pretrained()), bgPerUser, uint64(100+u))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range words {
				if _, err := m.sys.TransmitText(user, w); err != nil {
					t.Errorf("background %s message %d: %v", user, i, err)
					return
				}
			}
		}()
	}
	digest, moves := moverRun(t, mm, mover, stream, moveEvery)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if moves != refMoves {
		t.Fatalf("racing run changed members %d times, reference %d: move schedule is not deterministic", moves, refMoves)
	}
	if digest != refDigest {
		t.Fatalf("mover stream diverged under handover-vs-traffic racing: %016x != %016x", digest, refDigest)
	}
	var handovers int64
	for _, m := range mm.members {
		out, _ := m.node.HandoverStats()
		handovers += out
	}
	if handovers != int64(moves) {
		t.Fatalf("mesh counted %d handovers, client saw %d member changes", handovers, moves)
	}

	// "Exactly one member": after the run the mover's individual models,
	// on both edge sides, live only where the router sends them — every
	// handover moved the state, none duplicated or stranded it.
	holders := 0
	for i, m := range mm.members {
		if len(m.sys.Sender.UserDomains(mover))+len(m.sys.Receiver.UserDomains(mover)) == 0 {
			continue
		}
		holders++
		if i != mm.router.Owner(mover) {
			t.Errorf("member %d holds the mover's individual models but member %d serves them", i, mm.router.Owner(mover))
		}
	}
	if holders != 1 {
		t.Fatalf("the mover's individual models live on %d members, want exactly 1", holders)
	}
}

// TestConcurrentMeshUse exercises routing, cooperative fetches, evictions
// and handovers from many goroutines at once — under -race it is the
// mesh's data-race gate. Each goroutine owns one user (and its own
// router), so the per-user serialization contract holds while members,
// caches and counters are shared. The caches are small and unpinned, so
// one user's personalization keeps evicting another's model while that
// one is being enumerated and exported: a model that vanishes in between
// is skipped, never an error.
func TestConcurrentMeshUse(t *testing.T) {
	modelBytes := pretrained()[0].SizeBytes()
	mm := newMemMesh(t, 3, func(_ int, _ *mesh.Config, sys *core.Config) {
		sys.PinGeneral = false
		sys.SenderCacheBytes = 8 * modelBytes
	}, nil)
	if _, err := mm.members[0].sys.Sender.Prefetch([]string{"it", "medical"}); err != nil {
		t.Fatal(err)
	}
	const users = 16
	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			user := fmt.Sprintf("c%02d", u)
			router := mesh.NewRouter(mm.addrs, testSeed)
			for i := 0; i < 30; i++ {
				m := mm.members[router.Owner(user)]
				if _, err := m.sys.Sender.AcquireCodec("it", user); err != nil {
					errCh <- err
					return
				}
				if _, _, err := m.sys.Sender.Personalize("it", user); err != nil {
					errCh <- err
					return
				}
				if i%7 == u%7 {
					cell := router.Owner(user) + 1
					if _, err := m.node.MoveUser(user, cell); err != nil {
						errCh <- err
						return
					}
					router.Moved(user, cell)
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var handovers int64
	for _, m := range mm.members {
		out, _ := m.node.HandoverStats()
		handovers += out
		if c := m.sys.Sender.Cache(); c.Used() > c.Capacity() {
			t.Fatalf("%s over capacity: %d > %d", m.node.Self().Name, c.Used(), c.Capacity())
		}
	}
	if handovers == 0 {
		t.Fatal("concurrent run produced no handovers")
	}
}

// TestRefusedPushKeepsPeer: a push the target answers with a refusal — here
// it already holds a newer individual model for the user — is an answer
// from a live member, not a link fault. The move fails with the refusal,
// the target stays on the ring, the source keeps serving the user from
// their individual model, and the connection survives for the next push.
func TestRefusedPushKeepsPeer(t *testing.T) {
	mm := newMemMesh(t, 2, nil, nil)
	mm.warm(t)
	const user = "refused"
	mm.personalize(t, user, 0, 71)
	src := mm.owner(user)
	dstIdx := 1 - src.node.Self().Index
	dst := mm.members[dstIdx]
	domain := src.sys.Corpus.Domains[0].Name
	mine, _, err := src.sys.Sender.AppendUserModel(nil, domain, user)
	if err != nil {
		t.Fatal(err)
	}
	newer, _, err := dst.sys.Sender.Personalize(domain, user)
	if err != nil {
		t.Fatal(err)
	}
	newer.Version = mine.Version + 1

	_, err = src.node.MoveUser(user, dstIdx)
	var remote *rpc.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "already holds version") {
		t.Fatalf("move onto a newer model: %v, want the target's refusal as an *rpc.RemoteError", err)
	}
	if live := src.node.LiveMembers(); len(live) != 2 {
		t.Fatalf("a refusal demoted the peer that sent it: live members %v", live)
	}
	if !slices.Contains(src.sys.Users(), user) {
		t.Fatalf("the source dropped the record of a user it never handed off: %v", src.sys.Users())
	}
	if res := src.serve(t, user, messages(0, 1, 72)[0]); !res.UsedIndividual {
		t.Fatal("after the refused move the source no longer serves from the individual model")
	}
	conn := src.node.PeerClient(dstIdx)
	if conn == nil {
		t.Fatal("the refusal tore down the connection it arrived on")
	}

	dst.sys.Sender.DropUser(user) // the stale-newer model goes; the next push is taken
	if h, err := src.node.MoveUser(user, dstIdx); err != nil || !h.Moved {
		t.Fatalf("move after the target gave way: %+v, %v", h, err)
	}
	if src.node.PeerClient(dstIdx) != conn {
		t.Fatal("the next push dialed a new connection")
	}
}

// TestDrainAfterMovePushesOnlyHeld: a user moved away from a member is no
// longer that member's to hand off. Draining the old member pushes nothing
// for the user, leaves the new owner's record (noise sequence, belief,
// buffers, models) exactly as it was, and the user's next messages there
// equal those of a mesh where nobody drained.
func TestDrainAfterMovePushesOnlyHeld(t *testing.T) {
	const user = "moved"
	run := func(drain bool) uint64 {
		mm := newMemMesh(t, 3, nil, nil)
		mm.warm(t)
		mm.personalize(t, user, 0, 81)
		a := mm.owner(user)
		bIdx := (a.node.Self().Index + 1) % 3
		b := mm.members[bIdx]
		if h := mm.move(t, user, bIdx); !h.Moved {
			t.Fatalf("fixture move stayed on %s", h.From)
		}
		for _, words := range messages(0, 5, 82) {
			b.serve(t, user, words)
		}
		if users := a.sys.Users(); len(users) != 0 {
			t.Fatalf("the old member still holds records for %v after the move", users)
		}
		if drain {
			before := userState(t, b.sys, user)
			handedIn := func() (in int64) {
				for _, m := range mm.members {
					if m != a {
						in += m.node.Stats().HandoversIn
					}
				}
				return in
			}
			in := handedIn()
			if err := a.node.Drain(context.Background()); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if out, _ := a.node.HandoverStats(); out != 1 || handedIn() != in {
				t.Fatalf("the drain pushed user state: %d handovers out (want the move's 1), %d in (was %d)", out, handedIn(), in)
			}
			if after := userState(t, b.sys, user); after != before {
				t.Fatalf("the drain changed the new owner's record:\nbefore %.300s\nafter  %.300s", before, after)
			}
		}
		h := fnv.New64a()
		for _, words := range messages(0, 6, 83) {
			res := b.serve(t, user, words)
			fmt.Fprintf(h, "%d|%v|%g|%d|%d|%t|%t|%d\n",
				res.SelectedDomain, res.RestoredWords, res.Mismatch, res.PayloadBytes, res.Symbols,
				res.UsedIndividual, res.UpdateFired, res.UpdateBytes)
		}
		return h.Sum64()
	}
	if drained, undrained := run(true), run(false); drained != undrained {
		t.Fatalf("after the old member's drain the user's stream is %016x, undrained %016x", drained, undrained)
	}
}

// TestReplicaPushLeavesHeldGeneral: a replica of a general the successor
// already caches is a no-op there. Both members boot warm, so member 1
// holds "it" pinned before member 0 pushes it; afterwards member 1 must
// hold the very same model object (not a revived, unpinned copy) and must
// not count the push as a replica taken in.
func TestReplicaPushLeavesHeldGeneral(t *testing.T) {
	mm := newMemMesh(t, 2, func(_ int, cfg *mesh.Config, _ *core.Config) { cfg.Replicas = 1 }, nil)
	mm.warm(t)
	k := kb.Key{Domain: "it", Role: kb.RoleCodec}
	cache := mm.members[1].sys.Sender.Cache()
	before, ok := cache.Peek(k)
	if !ok {
		t.Fatal("warm member 1 does not cache the it general")
	}
	mm.members[0].node.PushReplicas("it")
	if out := mm.members[0].node.Stats().ReplicasOut; out != 1 {
		t.Fatalf("member 0 pushed %d replicas, want 1", out)
	}
	after, ok := cache.Peek(k)
	if !ok || after != before {
		t.Fatalf("the replica push replaced member 1's cached general (still cached: %v)", ok)
	}
	if in := mm.members[1].node.Stats().ReplicasIn; in != 0 {
		t.Fatalf("member 1 counted %d replicas in, want 0", in)
	}
}
