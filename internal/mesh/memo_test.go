package mesh_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/edge"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/semantic"
)

// dropDecodeMemos removes the decode memo from both edge servers of sys,
// so every decode runs the bare kernel. There is no product switch for
// this — the memo is not optional — hence the reach into an unexported
// field; edge.Server decodes directly when its memo is nil.
func dropDecodeMemos(t testing.TB, sys *core.System) {
	t.Helper()
	for _, srv := range []*edge.Server{sys.Sender, sys.Receiver} {
		f := reflect.ValueOf(srv).Elem().FieldByName("memo")
		if !f.IsValid() {
			t.Fatal("edge.Server has no memo field: update dropDecodeMemos")
		}
		reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Set(reflect.Zero(f.Type()))
	}
}

// idiolectMessages draws n single-domain messages in a user's own
// vocabulary: the rare synonyms the general model gets wrong and each
// update learns, so an update visibly changes what the same feature rows
// decode to — a memo serving pre-update answers would change the digests.
func idiolectMessages(domain, n int, seed uint64) [][]string {
	corp := corpus.Build()
	rng := mat.NewRNG(seed)
	idio := corpus.NewIdiolect(corp, rng.Split(), 0.5)
	gen := corpus.NewGenerator(corp, rng.Split())
	out := make([][]string, n)
	for i := range out {
		out[i] = gen.Message(domain, idio).Words
	}
	return out
}

var undertrainedOnce struct {
	sync.Once
	codecs []*semantic.Codec
}

// undertrained is a set of general models after one epoch on 40
// sentences: wrong about many tokens, so every update flips what feature
// rows the memo already holds decode to. With the harness's well-trained
// models an update moves no argmax the run ever looks up again (the
// fine-tune also moves the encoder, so the sender's rows themselves
// change), and a memo that ignored updates would still pass.
func undertrained() []*semantic.Codec {
	undertrainedOnce.Do(func() {
		undertrainedOnce.codecs = semantic.PretrainAll(corpus.Build(), semantic.Config{
			EmbedDim: 12, FeatureDim: 8, HiddenDim: 16, Epochs: 1, Sentences: 40, Seed: testSeed,
		})
	})
	return undertrainedOnce.codecs
}

// memoRun drives users × perUser messages through a two-member mesh with
// a 4-message update threshold, each user moving to the next cell — a
// handover to the other member — every fourteenth message (several updates
// of one model instance apart: a handover installs fresh clones, which
// would hide a writer that forgot to restamp), and returns one
// digest per user over everything a client could observe. parallel runs
// each user on its own goroutine (with its own router, as a client has);
// otherwise the users take turns message by message.
func memoRun(t *testing.T, memo, parallel bool, mutate func(sys *core.Config)) []uint64 {
	t.Helper()
	const users, perUser, moveEvery = 8, 48, 14
	mm := newMemMesh(t, 2, func(_ int, _ *mesh.Config, sys *core.Config) {
		sys.BufferThreshold = 4
		sys.Pretrained = undertrained()
		mutate(sys)
	}, nil)
	mm.warm(t)
	for _, m := range mm.members {
		if !memo {
			dropDecodeMemos(t, m.sys)
		}
	}
	type client struct {
		user   string
		router *mesh.Router
		stream [][]string
		cell   int
		digest hash.Hash64
		step   func(i int) error
	}
	clients := make([]*client, users)
	for u := range clients {
		h := fnv.New64a()
		c := &client{
			user:   fmt.Sprintf("u%d", u),
			router: mesh.NewRouter(mm.addrs, testSeed),
			// Two domains per user: two individual models each, so small
			// caches churn.
			stream: append(idiolectMessages(u%3, perUser/2, uint64(900+u)), idiolectMessages(3+u%2, perUser/2, uint64(950+u))...),
			digest: h,
		}
		c.step = func(i int) error {
			if i > 0 && i%moveEvery == 0 {
				c.cell++
				if _, err := mm.members[c.router.Owner(c.user)].node.MoveUser(c.user, c.cell); err != nil {
					return fmt.Errorf("%s move %d: %w", c.user, c.cell, err)
				}
				c.router.Moved(c.user, c.cell)
			}
			// Interleave the two domains so both models stay live.
			words := c.stream[(i%2)*(perUser/2)+i/2]
			m := mm.members[c.router.Owner(c.user)]
			res, err := m.sys.TransmitText(c.user, words)
			if err != nil {
				return fmt.Errorf("%s message %d: %w", c.user, i, err)
			}
			if res.UpdateErr != nil {
				return fmt.Errorf("%s message %d: update: %w", c.user, i, res.UpdateErr)
			}
			fmt.Fprintf(h, "%d|%v|%g|%d|%d|%t|%t|%d\n",
				res.SelectedDomain, res.RestoredWords, res.Mismatch, res.PayloadBytes,
				res.Symbols, res.UsedIndividual, res.UpdateFired, res.UpdateBytes)
			return nil
		}
		clients[u] = c
	}
	if parallel {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perUser; i++ {
					if err := c.step(i); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < perUser; i++ {
			for _, c := range clients {
				if err := c.step(i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	var handovers, updates int64
	var evictions uint64
	var hits uint64
	for _, m := range mm.members {
		out, _ := m.node.HandoverStats()
		handovers += out
		updates += int64(m.sys.SyncCount())
		evictions += m.sys.Sender.CacheStats().Evictions + m.sys.Receiver.CacheStats().Evictions
		hits += m.sys.DecodeMemoStats().Hits
	}
	if handovers == 0 || updates == 0 {
		t.Fatalf("the run exercised %d handovers and %d updates", handovers, updates)
	}
	if !parallel && evictions == 0 {
		t.Fatal("the small-cache run evicted nothing")
	}
	if memo == (hits == 0) {
		t.Fatalf("memo %t but %d memo hits", memo, hits)
	}
	out := make([]uint64, users)
	for u, c := range clients {
		out[u] = c.digest.Sum64()
	}
	return out
}

// TestMemoRunMatchesUnmemoizedRun is the system-level proof that the decode
// memo changes no observable bit: the same run — transmits, threshold-4
// updates (fine-tune on the sender edge, decoder sync applied on the
// receiver edge), handovers between two in-memory mesh members (export,
// wire, import), cache evictions — yields the same per-user digests with
// the servers' memos in place and with them removed. Eight users on eight
// goroutines share two members under -race with caches large enough that
// one user's stream does not depend on another's timing; the eviction leg
// runs the users in turn on caches that hold a third of the models.
func TestMemoRunMatchesUnmemoizedRun(t *testing.T) {
	modelBytes := undertrained()[0].SizeBytes()
	for _, leg := range []struct {
		name     string
		parallel bool
		mutate   func(sys *core.Config)
	}{
		{"8 goroutines", true, func(sys *core.Config) {
			sys.SenderCacheBytes = 64 * modelBytes
			sys.ReceiverCacheBytes = 64 * modelBytes
		}},
		{"evictions", false, func(sys *core.Config) {
			sys.PinGeneral = false
			sys.SenderCacheBytes = 6 * modelBytes
			sys.ReceiverCacheBytes = 6 * modelBytes
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			with := memoRun(t, true, leg.parallel, leg.mutate)
			without := memoRun(t, false, leg.parallel, leg.mutate)
			for u := range with {
				if with[u] != without[u] {
					t.Errorf("user %d: digest %016x with the memo, %016x without", u, with[u], without[u])
				}
			}
		})
	}
}
