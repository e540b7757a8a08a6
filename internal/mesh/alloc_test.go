package mesh_test

import (
	"runtime"
	"testing"

	"repro/internal/mat"
)

// TestHandoverAllocBudget pins what moving a user costs in memory, both
// members together: one user holding two individual models per edge side
// and pending transactions, handed back and forth over the in-memory
// mesh. Each model is serialized once on the way out, into a pooled
// export buffer, and parsed once into the model the target installs; both
// frames come from the pool and the transactions travel packed. The
// streaming codec allocated ≈963 KB in ≈806 allocations per move of this
// user, the byte codec ≈344 KB in ≈330 with a fresh buffer per frame and
// per exported model, and the pooled path ≈100–140 KB in ≈320: a fresh
// frame or export buffer adds ≈80 KB and fails the budget.
func TestHandoverAllocBudget(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	mm := newMemMesh(t, 2, nil, nil)
	mm.warm(t)
	const user = "budget"
	mm.personalize(t, user, 0, 71)
	mm.personalize(t, user, 1, 72)
	for _, words := range messages(0, 3, 73) {
		mm.owner(user).serve(t, user, words)
	}
	exp, err := mm.owner(user).sys.ExportUserForHandover(user)
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for _, b := range exp.Buffers {
		pending += len(b.Txs)
	}
	if len(exp.Sender) != 2 || len(exp.Receiver) != 2 || pending == 0 {
		t.Fatalf("fixture holds %d sender and %d receiver models and %d pending transactions; want 2, 2 and some",
			len(exp.Sender), len(exp.Receiver), pending)
	}
	move := func() {
		if h := mm.move(t, user, mm.router.Owner(user)+1); !h.Moved {
			t.Fatal("the move handed nothing over")
		}
	}
	move()
	move()
	const moves = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < moves; i++ {
		move()
	}
	runtime.ReadMemStats(&after)
	perMove := (after.TotalAlloc - before.TotalAlloc) / moves
	allocs := (after.Mallocs - before.Mallocs) / moves
	t.Logf("per move: %d B in %d allocations, %d B of sender-side parameters", perMove, allocs, exp.SenderBytes())
	const byteBudget, allocBudget = 160 << 10, 400
	if perMove > byteBudget || allocs > allocBudget {
		t.Fatalf("a move allocates %d B in %d allocations, budget %d B in %d", perMove, allocs, byteBudget, allocBudget)
	}
}
