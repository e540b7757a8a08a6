package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kb"
	"repro/internal/nn"
	"repro/internal/semantic"
)

// decoderTensors returns the decoder-side tensors of m, read through the
// parameter codec so the check restamps nothing.
func decoderTensors(t *testing.T, m *kb.Model) []nn.Param {
	t.Helper()
	b, err := m.Codec.AppendParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := nn.ParseParamSet(b)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]nn.Param, 0, 4)
	for _, name := range []string{semantic.ParamDecW, semantic.ParamDecB, semantic.ParamOutW, semantic.ParamOutB} {
		out = append(out, nn.Param{Name: name, M: ps.ByName(name)})
	}
	return out
}

// TestReceiverDecoderIsSenderCopy: the receiver's decoder of every (user,
// domain) pair is the sender's decoder copy bit for bit, whatever either
// cache evicted and whichever member owns the user. The receiver cache
// holds every model while the sender's holds eight individual models (E11's
// asymmetry), so the sender re-personalizes evicted users from the general
// model while the receiver keeps its older individual model; half the
// users are handed to a second member halfway through.
func TestReceiverDecoderIsSenderCopy(t *testing.T) {
	const users, perUser, moveAt = 24, 80, 40
	newSystem := func(name string) *System {
		cfg := batchTestConfig()
		cfg.SenderName = name
		cfg.ReceiverCacheBytes = 1 << 40
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prefetchAll(t, s)
		return s
	}
	a, b := newSystem("node-0"), newSystem("node-1")
	streams := batchUserMessages(a.Corpus, users, perUser)
	owner := make([]*System, users)
	for u := range owner {
		owner[u] = a
	}
	checks, updates := 0, 0
	for i := 0; i < perUser; i++ {
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("user%d", u)
			if i == moveAt && u%2 == 1 {
				handOver(t, user, a, b)
				owner[u] = b
			}
			s := owner[u]
			res, err := s.TransmitText(user, streams[u][i])
			if err != nil {
				t.Fatal(err)
			}
			if res.UpdateFired {
				updates++
			}
			for _, domain := range s.Sender.UserDomains(user) {
				key := kb.UserKey(domain, user, kb.RoleCodec)
				sm, ok := s.Sender.Cache().Peek(key)
				if !ok {
					continue
				}
				rm, ok := s.Receiver.Cache().Peek(key)
				if !ok {
					continue
				}
				checks++
				want, got := decoderTensors(t, sm), decoderTensors(t, rm)
				for k, p := range want {
					for j, v := range p.M.Data {
						if w := got[k].M.Data[j]; math.Float64bits(w) != math.Float64bits(v) {
							t.Fatalf("message %d of %s/%s: receiver %s[%d] = %v, sender's copy %v (versions %d, %d)",
								i, user, domain, p.Name, j, w, v, rm.Version, sm.Version)
						}
					}
				}
			}
		}
	}
	t.Logf("%d updates, %d pairs checked", updates, checks)
	if updates == 0 || checks == 0 {
		t.Fatalf("%d updates fired and %d pairs were checked: the run exercised nothing", updates, checks)
	}
	if evicted := a.Sender.CacheStats().Evictions + b.Sender.CacheStats().Evictions; evicted == 0 {
		t.Fatal("no sender cache evicted a model: the stale-base case never arose")
	}
}
