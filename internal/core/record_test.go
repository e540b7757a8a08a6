package core

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/selection"
)

// recordTestSystem is a system with the sticky selector, so a user's
// record carries a belief, a noise sequence and buffers.
func recordTestSystem(t *testing.T, name string) *System {
	t.Helper()
	cfg := batchTestConfig()
	cfg.SenderName = name
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefetchAll(t, s)
	return s
}

// handOver moves user from one system to another the way a mesh hand-off
// does: export, import on the target, drop at the source.
func handOver(t *testing.T, user string, from, to *System) {
	t.Helper()
	exp, err := from.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := to.ImportUserFromHandover(exp); err != nil {
		t.Fatal(err)
	}
	from.DropUserAfterHandover(exp)
}

// TestUserRecordLifecycle: a record exists on the member that holds the
// user and nowhere else, and it carries the user's whole stream. A user
// handed A → B → A mid-buffer and across a domain switch arrives on each
// member with the record of a twin that never moved, and then produces the
// twin's results, noise realizations included: the fresh record A builds
// on the way back continues the noise sequence and the selection belief
// exactly.
func TestUserRecordLifecycle(t *testing.T) {
	const user = "dave"
	corp := corpus.Build()
	reqs := append(oracleRequests(corp, user, 0, 12, 601), oracleRequests(corp, user, 1, 12, 602)...)
	twin := recordTestSystem(t, "twin")
	a, b := recordTestSystem(t, "node-0"), recordTestSystem(t, "node-1")
	var got, want []*Result
	// serve runs reqs[lo:hi] on s and on the twin.
	serve := func(s *System, lo, hi int) {
		t.Helper()
		for _, req := range reqs[lo:hi] {
			for _, sys := range []*System{s, twin} {
				res, err := sys.Transmit(req)
				if err != nil {
					t.Fatal(err)
				}
				if sys == twin {
					want = append(want, res)
				} else {
					got = append(got, res)
				}
			}
		}
	}
	record := func(s *System) *UserExport {
		t.Helper()
		exp, err := s.ExportUserForHandover(user)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	// moveTo hands the user from one member to the other and checks the
	// target now holds the twin's record and the source holds nothing.
	moveTo := func(from, to *System) {
		t.Helper()
		handOver(t, user, from, to)
		if slices.Contains(from.Users(), user) || !slices.Contains(to.Users(), user) {
			t.Fatalf("after the hand-off the source lists %v, the target %v", from.Users(), to.Users())
		}
		if d := from.Sender.UserDomains(user); len(d) != 0 {
			t.Fatalf("the source still caches individual models for %v", d)
		}
		if mine, theirs := record(to), record(twin); !reflect.DeepEqual(mine, theirs) {
			t.Fatalf("the handed-off record differs from the twin's: noise sequence %d vs %d, belief %v vs %v, %d vs %d buffers",
				mine.NoiseSeq, theirs.NoiseSeq, mine.Belief, theirs.Belief, len(mine.Buffers), len(theirs.Buffers))
		}
	}
	serve(a, 0, 5)
	moveTo(a, b)
	serve(b, 5, 15)
	moveTo(b, a)
	serve(a, 15, len(reqs))
	if g, w := noisyDigest(got), noisyDigest(want); g != w {
		t.Fatalf("the round-tripped user's stream diverged from a twin that never moved:\ngot:\n%s\nwant:\n%s", g, w)
	}
	if fired := slices.ContainsFunc(got, func(r *Result) bool { return r.UpdateFired }); !fired {
		t.Fatal("no update fired: the round trip carried no individual model")
	}
}

// TestDropRetiresRecordUnderWaitingTransmit: a transmit that waits on the
// user's lock while the drop holds it must not run on the record the drop
// retires. It looks the user up again and finishes on a fresh, live
// record, and the retired one stays exactly as the drop left it.
func TestDropRetiresRecordUnderWaitingTransmit(t *testing.T) {
	const user = "erin"
	s := recordTestSystem(t, "node-0")
	reqs := oracleRequests(s.Corpus, user, 0, 4, 603)
	for _, req := range reqs[:3] {
		if _, err := s.Transmit(req); err != nil {
			t.Fatal(err)
		}
	}

	// Hold the record's lock the way DropUserAfterHandover does, and let a
	// transmit queue behind it before the record is retired.
	dead := s.lockUser(user)
	seq, sel := dead.noiseSeq, dead.sel.(*selection.Sticky)
	belief := sel.ExportBelief()
	done := make(chan error)
	go func() {
		_, err := s.Transmit(reqs[3])
		done <- err
	}()
	waitParkedInLockUser()
	s.retireUser(dead, user)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	dead.mu.Lock()
	defer dead.mu.Unlock()
	if dead.noiseSeq != seq || dead.noiseSeq != 3 || !slices.Equal(sel.ExportBelief(), belief) {
		t.Fatalf("the waiting transmit changed the retired record: noise sequence %d (was %d)", dead.noiseSeq, seq)
	}
	live := s.lockUser(user)
	defer live.mu.Unlock()
	if live == dead || live.noiseSeq != 1 {
		t.Fatalf("the transmit did not run on a fresh live record: same record %t, noise sequence %d", live == dead, live.noiseSeq)
	}
	if users := s.Users(); !slices.Equal(users, []string{user}) {
		t.Fatalf("Users() = %v, want the live record only", users)
	}
}

// waitParkedInLockUser returns once some goroutine is blocked acquiring a
// record's mutex inside lockUser: it has looked the record up and waits on
// its lock.
func waitParkedInLockUser() {
	buf := make([]byte, 1<<20)
	for {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Mutex).lockSlow") && strings.Contains(g, "core.(*System).lockUser") {
				return
			}
		}
		runtime.Gosched()
	}
}
