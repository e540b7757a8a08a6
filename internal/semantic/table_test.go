package semantic

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mat"
)

// requireTableMatchesKernels reads ids through the sender table — the
// gathered feature rows and the decoder-copy concepts — and fails unless
// every row equals per-token EncodeSurfaceID bit for bit and every concept
// equals the one-row decode of that row. Errors go through t.Errorf so worker
// goroutines may call it; it reports whether everything matched.
func requireTableMatchesKernels(t *testing.T, sc *mat.Scratch, c *Codec, ids []int, what string) bool {
	t.Helper()
	sc.Reset()
	feats := c.EncodeSurfaceIDsInto(sc, ids)
	concepts := make([]int, len(ids))
	c.DecoderCopyInto(ids, concepts)
	if feats.Rows != len(ids) || feats.Cols != c.FeatureDim() {
		t.Errorf("%s: gathered a %dx%d matrix for %d ids of width %d", what, feats.Rows, feats.Cols, len(ids), c.FeatureDim())
		return false
	}
	want := make([]float64, c.FeatureDim())
	for i, id := range ids {
		c.EncodeSurfaceID(id, want)
		for j, v := range feats.Row(i) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Errorf("%s: id %d column %d is %v from the table, %v from EncodeSurfaceID", what, id, j, v, want[j])
				return false
			}
		}
		if ci := decodeOne(c, want); concepts[i] != ci {
			t.Errorf("%s: id %d decoder-copies to %d from the table, the one-row decode says %d", what, id, concepts[i], ci)
			return false
		}
	}
	return true
}

// TestSenderTableMatchesKernels: the trained fixture codec and untrained
// ones of other widths, over every surface of the lexicon plus the IDs that
// clamp to the unknown surface; rows are filled as they are first asked
// for, one table serves every read until a door is opened, and it is not
// carried into a clone.
func TestSenderTableMatchesKernels(t *testing.T) {
	_, trained := sharedFixtures(t)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	for _, c := range []*Codec{trained.Clone(), memoCodec(3, 1), memoCodec(12, 2)} {
		ids := []int{-1, c.Domain().VocabSize(), 1 << 40}
		for id := 0; id < c.Domain().VocabSize(); id++ {
			ids = append(ids, id)
		}
		if c.table.Load() != nil {
			t.Fatal("a codec nothing has encoded with already holds a table")
		}
		requireTableMatchesKernels(t, sc, c, ids[:5], "cold")
		built := c.table.Load()
		if built == nil || built.stamp != c.stamp.Load() {
			t.Fatal("the first read published no current table")
		}
		if last := c.Domain().VocabSize() - 1; !built.has(1) || built.has(last) {
			t.Fatalf("after reading surfaces 0 and 1 the table holds 1: %v, %d: %v", built.has(1), last, built.has(last))
		}
		requireTableMatchesKernels(t, sc, c, ids, "half-filled")
		requireTableMatchesKernels(t, sc, c, ids, "warm")
		if _, err := c.AppendParams(nil); err != nil {
			t.Fatal(err)
		}
		if c.table.Load() != built {
			t.Fatal("reads and a read-only export rebuilt the table")
		}
		if c.Clone().table.Load() != nil {
			t.Fatal("a clone starts with its source's table: it has its own stamp and its own weights to come")
		}
		mat.Scale(c.Params().ByName(ParamEncW).Data, -0.5)
		requireTableMatchesKernels(t, sc, c, ids, "after an encoder write")
		if c.table.Load() == built {
			t.Fatal("a write through Params() left the old table published")
		}
	}
}

// TestSenderTableConcurrent is the surface the table adds: readers that
// publish tables and fill rows on their own, and read filled rows without a
// lock. Two goroutines encode and
// decoder-copy through one shared codec (two connections on a general
// model) while a third keeps restamping it through Params() without
// writing — concurrent weight writes are excluded by the user lock, so
// every table any reader builds or finds must equal the kernels. Run under
// -race.
func TestSenderTableConcurrent(t *testing.T) {
	c := memoCodec(8, 50)
	vocab := c.Domain().VocabSize()
	var stop atomic.Bool
	var readers, restamper sync.WaitGroup
	restamper.Add(1)
	go func() {
		defer restamper.Done()
		for !stop.Load() {
			c.Params()
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rng := mat.NewRNG(uint64(g) + 1)
			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			ids := make([]int, 48)
			for iter := 0; iter < 200; iter++ {
				for i := range ids {
					ids[i] = rng.Intn(vocab+2) - 1 // -1 and vocab clamp
				}
				if !requireTableMatchesKernels(t, sc, c, ids, "under restamping") {
					return
				}
			}
		}()
	}
	readers.Wait()
	stop.Store(true)
	restamper.Wait()
}
