package edged

import (
	"context"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/mesh"
	"repro/internal/rpc"
	"repro/internal/semantic"
	"repro/internal/text"
)

var (
	soakOnce     sync.Once
	soakGenerals []*semantic.Codec
)

// soakPretrained trains one small set of general codecs shared by every
// soak/replay system in this file: identical weights are what make the
// served-versus-direct comparison meaningful.
func soakPretrained(t testing.TB) []*semantic.Codec {
	t.Helper()
	soakOnce.Do(func() {
		soakGenerals = semantic.PretrainAll(corpus.Build(), semantic.Config{
			EmbedDim: 12, FeatureDim: 6, HiddenDim: 16,
			Epochs: 2, Sentences: 300, Seed: 11,
		})
	})
	return soakGenerals
}

// soakConfig is the system configuration under soak: sticky selection with
// a small update threshold so fine-tuning and decoder syncs happen under
// concurrent fire.
func soakConfig(t *testing.T) core.Config {
	return core.Config{
		Selector:        core.SelectorSticky,
		PinGeneral:      true,
		BufferThreshold: 8,
		Seed:            11,
		Pretrained:      soakPretrained(t),
	}
}

// soakMember builds member i of a mesh of soakConfig members, through
// the NewMember call New makes.
func soakMember(t *testing.T, i int, members []rpc.PeerInfo) (*Daemon, error) {
	return NewMember(mesh.Config{Self: members[i], Peers: slices.Delete(slices.Clone(members), i, i+1), RingSeed: 11}, soakConfig(t))
}

// startLone serves a daemon without -peers (soakMember 0 of 1) on a
// loopback port, adjust (when non-nil) changing its server's defaults
// first, and returns the server and its address. It stops with the test.
func startLone(t *testing.T, adjust func(*server)) (*server, string) {
	t.Helper()
	c, err := StartCluster(1, "127.0.0.1:0", func(_ int, members []rpc.PeerInfo) (*Daemon, error) {
		d, err := soakMember(t, 0, members)
		if err == nil && adjust != nil {
			adjust(d.srv)
		}
		return d, err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Stop(); err != nil {
			t.Error(err)
		}
	})
	return c.Members[0].srv, c.Addrs[0]
}

// TestSoakConcurrentClients hammers a started daemon with 32 concurrent
// sticky connections across distinct users and checks every response plus
// the exact final counter state.
func TestSoakConcurrentClients(t *testing.T) {
	srv, addr := startLone(t, nil)
	sys := srv.sys

	const clients, perClient = 32, 8
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := rpc.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			user := fmt.Sprintf("soak%02d", c)
			gen := corpus.NewGenerator(sys.Corpus, mat.NewRNG(uint64(2000+c)))
			for i := 0; i < perClient; i++ {
				msg := gen.Message(c%len(sys.Corpus.Domains), nil)
				resp, err := cl.Transmit(user, msg.Text())
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", user, err)
					return
				}
				if !resp.OK {
					errCh <- fmt.Errorf("%s message %d: daemon error %q", user, i, resp.Error)
					return
				}
				if resp.Restored == "" || resp.PayloadBytes <= 0 || resp.LatencyMs <= 0 {
					errCh <- fmt.Errorf("%s message %d: implausible response %+v", user, i, resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != clients*perClient {
		t.Fatalf("messages = %d, want exactly %d", st.Messages, clients*perClient)
	}
	if st.Serve == nil {
		t.Fatalf("stats carry no serve metrics: %+v", st)
	}
	if st.Serve.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d after drain", st.Serve.InFlight)
	}
	if st.Serve.LatencyP50Ms <= 0 || st.Serve.LatencyP99Ms < st.Serve.LatencyP50Ms {
		t.Fatalf("latency percentiles implausible: %+v", st.Serve)
	}
	if st.Serve.Shed != 0 {
		t.Fatalf("requests shed without deadlines: %+v", st.Serve)
	}
	if st.SyncCount <= 0 || st.SyncBytes <= 0 {
		t.Fatalf("no decoder updates under soak: %+v", st)
	}
	if st.Serve.UpdateP50Ms <= 0 || st.Serve.UpdateP99Ms < st.Serve.UpdateP50Ms {
		t.Fatalf("update percentiles implausible after %d updates: %+v", st.SyncCount, st.Serve)
	}
	if st.SenderHitRate <= 0 {
		t.Fatalf("sender cache never hit: %+v", st)
	}
}

// TestClientDisconnectsMidTransmit soaks the serve path against clients
// that vanish mid-request: each rogue client fires a transmit and slams
// the connection without reading the response, while well-behaved clients
// keep transmitting through a 2-slot admission gate. The daemon must
// neither wedge nor leak a gate slot on the abandoned work; the race-mode
// CI job runs this to check the serve path's synchronization. Every
// submitted transmit is still executed (the server only notices the dead
// peer at write time), so the message accounting stays exact.
func TestClientDisconnectsMidTransmit(t *testing.T) {
	srv, addr := startLone(t, func(s *server) { s.gate = newGate(2) })
	sys := srv.sys

	const rogues, good, perClient = 8, 8, 6
	var wg sync.WaitGroup
	errCh := make(chan error, rogues+good)
	for c := 0; c < rogues; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := corpus.NewGenerator(sys.Corpus, mat.NewRNG(uint64(5000+c)))
			for i := 0; i < perClient; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errCh <- err
					return
				}
				// Raw wire-level write, then vanish before the response
				// lands: the transmit is in flight when the peer
				// disappears. rpc.Client cannot express this (it always
				// reads the response), so this one test speaks the frame
				// protocol directly.
				req := rpc.Request{
					Op:   rpc.OpTransmit,
					User: fmt.Sprintf("rogue%02d", c),
					Text: gen.Message(c%len(sys.Corpus.Domains), nil).Text(),
				}
				err = rpc.WriteV(conn, rpc.Version, &req)
				conn.Close()
				if err != nil {
					errCh <- err
					return
				}
			}
		}(c)
	}
	for c := 0; c < good; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := rpc.Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			user := fmt.Sprintf("good%02d", c)
			gen := corpus.NewGenerator(sys.Corpus, mat.NewRNG(uint64(6000+c)))
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				resp, err := cl.TransmitContext(ctx, user, gen.Message(c%len(sys.Corpus.Domains), nil).Text())
				cancel()
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", user, err)
					return
				}
				if !resp.OK {
					errCh <- fmt.Errorf("%s message %d: daemon error %q", user, i, resp.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The daemon must still be fully serviceable, with every transmit —
	// including the abandoned ones — counted as served.
	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		// Rogue transmits may still be draining when the clients exit;
		// poll until the counters settle.
		if st.Messages == (rogues+good)*perClient && st.Serve != nil && st.Serve.InFlight == 0 && len(srv.gate) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned transmits never drained: messages %d, serve %+v, %d gate slots held",
				st.Messages, st.Serve, len(srv.gate))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServedMatchesDirectSerialReplay replays one user's message sequence
// through a served daemon and through a direct identically-built member's System,
// and requires bit-identical results field by field — the serve path must
// add no behavior.
func TestServedMatchesDirectSerialReplay(t *testing.T) {
	d, err := soakMember(t, 0, lone)
	if err != nil {
		t.Fatal(err)
	}
	direct := d.Sys
	_, addr := startLone(t, nil)

	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := corpus.NewGenerator(direct.Corpus, mat.NewRNG(77))
	for i := 0; i < 40; i++ {
		words := gen.Message(i%len(direct.Corpus.Domains), nil).Words
		want, err := direct.TransmitText("replay", words)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Transmit("replay", strings.Join(words, " "))
		if err != nil {
			t.Fatal(err)
		}
		if !got.OK {
			t.Fatalf("message %d: daemon error %q", i, got.Error)
		}
		if got.Restored != text.Join(want.RestoredWords) {
			t.Fatalf("message %d: restored %q != direct %q", i, got.Restored, text.Join(want.RestoredWords))
		}
		if got.SelectedDomain != direct.Corpus.Domains[want.SelectedDomain].Name {
			t.Fatalf("message %d: domain %q != direct %q", i, got.SelectedDomain, direct.Corpus.Domains[want.SelectedDomain].Name)
		}
		if got.Mismatch != want.Mismatch {
			t.Fatalf("message %d: mismatch %v != direct %v", i, got.Mismatch, want.Mismatch)
		}
		if got.PayloadBytes != want.PayloadBytes {
			t.Fatalf("message %d: payload %d != direct %d", i, got.PayloadBytes, want.PayloadBytes)
		}
		if got.LatencyMs != float64(want.Latency)/float64(time.Millisecond) {
			t.Fatalf("message %d: latency %v != direct %v", i, got.LatencyMs, want.Latency)
		}
		if got.CacheHit != want.EncCacheHit || got.Individual != want.UsedIndividual || got.UpdateFired != want.UpdateFired {
			t.Fatalf("message %d: flags %+v != direct %+v", i, got, want)
		}
	}
}

// TestStalledClientDisconnected checks the read deadline: a connection
// that sends nothing must be dropped instead of pinning its goroutine.
func TestStalledClientDisconnected(t *testing.T) {
	_, addr := startLone(t, func(s *server) { s.idleTimeout = 50 * time.Millisecond })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Send nothing. The server must close the connection, surfacing as
	// EOF/reset here — not as our own read deadline expiring.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("stalled connection still open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the stalled connection")
	}
}

// TestAdmissionShedding saturates a 1-slot gate with a slow transmit and
// checks a tight-deadline request is shed with the typed response instead
// of queueing, and that the shed counter and queue-wait histogram record
// the event.
func TestAdmissionShedding(t *testing.T) {
	srv, addr := startLone(t, func(s *server) {
		s.gate = newGate(1)
		s.shedAfter = 20 * time.Millisecond
	})

	// Occupy the only slot directly so the timing is deterministic.
	srv.gate <- struct{}{}
	defer func() { <-srv.gate }()

	cl, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The client's own patience is ample: the server's -shed-after policy
	// is what rejects the request, and the client still gets the answer.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := cl.TransmitContext(ctx, "impatient", "the server is down")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || !resp.Shed {
		t.Fatalf("saturated gate served anyway: %+v", resp)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serve == nil || st.Serve.Shed != 1 {
		t.Fatalf("shed counter = %+v, want 1", st.Serve)
	}
	if st.Messages != 0 {
		t.Fatalf("shed request counted as served: %+v", st)
	}
}
