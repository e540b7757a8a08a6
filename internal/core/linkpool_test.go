package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/trace"
)

// pooledOracleStreams builds one fixed oracle request stream per user,
// user u pinned to domain u mod len(domains).
func pooledOracleStreams(corp *corpus.Corpus, users, perUser int) [][]trace.Request {
	streams := make([][]trace.Request, users)
	for u := range streams {
		streams[u] = oracleRequests(corp, fmt.Sprintf("user%d", u),
			u%len(corp.Domains), perUser, uint64(700+u))
	}
	return streams
}

// userNoisyDigests runs every user's stream against s — concurrently when
// parallel is set — and returns one NOISE-SENSITIVE digest per user
// (noisyDigest includes RestoredWords, so any divergence in the exact
// channel-noise realization fails the comparison).
func userNoisyDigests(t *testing.T, s *System, streams [][]trace.Request, parallel bool) []string {
	t.Helper()
	digests := make([]string, len(streams))
	run := func(u int) error {
		results := make([]*Result, 0, len(streams[u]))
		for i := range streams[u] {
			res, err := s.Transmit(streams[u][i])
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		digests[u] = noisyDigest(results)
		return nil
	}
	if !parallel {
		for u := range streams {
			if err := run(u); err != nil {
				t.Fatal(err)
			}
		}
		return digests
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(streams))
	for u := range streams {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := run(u); err != nil {
				errCh <- err
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return digests
}

// TestLinkPoolMatchesSerializedGolden is the tentpole bit-identity proof:
// PerUserNoise serving over the lock-free pooled channel stage produces,
// per user, the exact noise realizations of the pre-pool serialized path
// (reseed the one shared RNG under linkMu) — at 1, 2 and 8 mat workers,
// with users running concurrently. The reference runs on the same binary
// via the serialLink test hook, which routes PerUserNoise transmits back
// through the serialized path.
func TestLinkPoolMatchesSerializedGolden(t *testing.T) {
	const users, perUser = 6, 16

	// Serialized reference: pre-pool path, one user at a time.
	ref, err := NewSystem(userNoiseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref.serialLink = true
	prefetchAll(t, ref)
	streams := pooledOracleStreams(ref.Corpus, users, perUser)
	want := userNoisyDigests(t, ref, streams, false)

	prevWorkers := mat.Parallelism()
	defer mat.SetParallelism(prevWorkers)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d/solo", workers), func(t *testing.T) {
			mat.SetParallelism(workers)
			s, err := NewSystem(userNoiseConfig())
			if err != nil {
				t.Fatal(err)
			}
			prefetchAll(t, s)
			got := userNoisyDigests(t, s, streams, true)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("user%d noise stream diverged from serialized reference:\nwant:\n%s\ngot:\n%s",
						u, want[u], got[u])
				}
			}
		})
	}
}

// TestLinkPoolSerialHookMatchesPooledSerial sanity-checks the reference
// itself: with a single user running serially, the pooled path and the
// serialLink path must agree — they are two implementations of the same
// derived-seed draw.
func TestLinkPoolSerialHookMatchesPooledSerial(t *testing.T) {
	mk := func(serial bool) *System {
		s, err := NewSystem(userNoiseConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.serialLink = serial
		prefetchAll(t, s)
		return s
	}
	streams := pooledOracleStreams(corpus.Build(), 1, 12)
	a := userNoisyDigests(t, mk(true), streams, false)
	b := userNoisyDigests(t, mk(false), streams, false)
	if a[0] != b[0] {
		t.Fatalf("serialLink reference and pooled path disagree on a serial stream:\nserial:\n%s\npooled:\n%s", a[0], b[0])
	}
}

// TestLinkPoolRaceSoak hammers the pooled channel stage under load — one
// hot user shared by many goroutines (per-user serialization with
// maximal pool contention) and a wide set of distinct users (maximal
// checkout concurrency). Its value is highest under -race, where it proves
// the lock-free stage is data-race-free; without the detector it still
// exercises pool checkout under real contention.
func TestLinkPoolRaceSoak(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10
	)
	t.Run("solo", func(t *testing.T) {
		s, err := NewSystem(userNoiseConfig())
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, s)
		gen := corpus.NewGenerator(s.Corpus, mat.NewRNG(808))
		msgs := make([]corpus.Message, goroutines*perG)
		for i := range msgs {
			msgs[i] = gen.Message(i%len(s.Corpus.Domains), nil)
		}

		var wg sync.WaitGroup
		errCh := make(chan error, 2*goroutines)
		for g := 0; g < goroutines; g++ {
			// Half the load hammers one hot user; half spreads across
			// distinct users.
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					req := trace.Request{User: "hot-user", Msg: msgs[(g*perG+i)%len(msgs)]}
					if _, err := s.Transmit(req); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
			go func(g int) {
				defer wg.Done()
				user := fmt.Sprintf("cold-user%d", g)
				for i := 0; i < perG; i++ {
					req := trace.Request{User: user, Msg: msgs[(g*perG+i)%len(msgs)]}
					if _, err := s.Transmit(req); err != nil {
						errCh <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}
