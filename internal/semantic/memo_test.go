package semantic

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/nn"
)

// memoCodec builds an untrained codec of the given feature width: random
// weights decode random rows to well-spread concepts, which is all the
// memo tests need.
func memoCodec(featureDim int, seed uint64) *Codec {
	corp := corpus.Build()
	return NewCodec(corp.Domains[int(seed)%len(corp.Domains)], Config{
		EmbedDim: 8, FeatureDim: featureDim, HiddenDim: 12, Seed: seed,
	})
}

// randomRows fills an n x cols matrix with rows drawn from a pool of
// `distinct` random rows, so small pools repeat rows inside one batch.
func randomRows(rng *mat.RNG, n, cols, distinct int) *mat.Dense {
	pool := mat.NewDense(distinct, cols)
	for i := range pool.Data {
		pool.Data[i] = 2*rng.Float64() - 1
	}
	out := mat.NewDense(n, cols)
	for i := 0; i < n; i++ {
		copy(out.Row(i), pool.Row(rng.Intn(distinct)))
	}
	return out
}

// requireMemoMatchesDirect decodes feats through the memo and through the
// bare kernel and fails on the first differing concept.
func requireMemoMatchesDirect(t *testing.T, m *DecodeMemo, c *Codec, feats *mat.Dense, what string) {
	t.Helper()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	want := make([]int, feats.Rows)
	c.DecodeFeaturesInto(sc, feats, want)
	got := make([]int, feats.Rows)
	for i := range got {
		got[i] = -1
	}
	m.DecodeFeaturesInto(sc, c, feats, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d decodes to %d through the memo, %d directly", what, i, got[i], want[i])
		}
	}
}

// TestDecodeMemoMatchesDirect: random row sets with duplicates inside one
// miss batch, cold and warm, at padded key widths (1, 6), the full one (8),
// and past it (12: not memoized). Hit counts are checked in aggregate: four
// ways per set means five rows of one message can land in one set and the
// first be gone on the repeat — rare, but which rows depends on the stamp.
func TestDecodeMemoMatchesDirect(t *testing.T) {
	for _, dim := range []int{1, 6, 8, 12} {
		c := memoCodec(dim, uint64(dim))
		m := NewDecodeMemo()
		rng := mat.NewRNG(uint64(100 + dim))
		var repeated, hits uint64
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(130)
			feats := randomRows(rng, n, dim, 1+rng.Intn(40))
			requireMemoMatchesDirect(t, m, c, feats, "cold")
			before := m.Stats()
			requireMemoMatchesDirect(t, m, c, feats, "warm")
			repeated += uint64(n)
			hits += m.Stats().Hits - before.Hits
		}
		if dim > memoRowFloats {
			if st := m.Stats(); st != (MemoStats{}) {
				t.Fatalf("dim %d is wider than the key and must bypass the memo, counters %+v", dim, st)
			}
		} else if hits*100 < repeated*97 {
			t.Fatalf("dim %d: repeated messages hit %d of %d rows", dim, hits, repeated)
		}
	}
}

// TestDecodeMemoSmallMissBatches leaves exactly 1, 2, 3 (the pure-Go GEMM
// fallback), 4 and 5 (the AVX2 tile path and its overlapped tail) rows to
// the miss kernel inside a 96-row message.
func TestDecodeMemoSmallMissBatches(t *testing.T) {
	c := memoCodec(8, 3)
	rng := mat.NewRNG(9)
	misses := func(m *DecodeMemo, feats *mat.Dense, what string) uint64 {
		before := m.Stats()
		requireMemoMatchesDirect(t, m, c, feats, what)
		after := m.Stats()
		return (after.Lookups - before.Lookups) - (after.Hits - before.Hits)
	}
	for fresh := 1; fresh <= 5; fresh++ {
		m := NewDecodeMemo()
		warm := randomRows(rng, 96, 8, 96)
		// A message whose 96 rows all fit (no five in one set).
		for misses(m, warm, "warm-up"); misses(m, warm, "repeat") != 0; {
			m, warm = NewDecodeMemo(), randomRows(rng, 96, 8, 96)
			misses(m, warm, "warm-up")
		}
		feats := warm.Clone()
		for k := 0; k < fresh; k++ {
			row := feats.Row(7 + 17*k)
			for i := range row {
				row[i] = 2*rng.Float64() - 1
			}
		}
		if got := misses(m, feats, "partial"); got != uint64(fresh) {
			t.Fatalf("%d fresh rows in a warm message missed %d times", fresh, got)
		}
	}
}

// TestDecodeMemoOddValues keys rows by bit pattern, so NaN payloads, both
// zeros, infinities and values the tanh could never produce are all legal
// rows that must decode exactly as the kernel decodes them.
func TestDecodeMemoOddValues(t *testing.T) {
	c := memoCodec(8, 5)
	m := NewDecodeMemo()
	negZero := math.Copysign(0, -1)
	odd := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), negZero, 0,
		math.Inf(1), math.Inf(-1), 7.5, -1e300, math.SmallestNonzeroFloat64, 1, -1,
	}
	rng := mat.NewRNG(4)
	feats := mat.NewDense(64, 8)
	for i := range feats.Data {
		if rng.Intn(3) == 0 {
			feats.Data[i] = odd[rng.Intn(len(odd))]
		} else {
			feats.Data[i] = 2*rng.Float64() - 1
		}
	}
	// Two rows equal as values but not as bits.
	for i := 0; i < 8; i++ {
		feats.Set(0, i, 0)
		feats.Set(1, i, negZero)
	}
	requireMemoMatchesDirect(t, m, c, feats, "cold")
	requireMemoMatchesDirect(t, m, c, feats, "warm")
	if st := m.Stats(); st.Hits < 58 { // 64 less the odd set conflict
		t.Fatalf("odd-valued rows did not hit on repeat: %+v", st)
	}
}

// TestDecodeMemoCapacityAndIsolation pushes three times more distinct rows
// than the table has slots through one memo shared by twelve codecs of two
// widths, interleaved, re-reading old rows as it goes: every answer stays
// exact while entries are replaced under it, and codecs never see each
// other's rows (same row bits, different stamp).
func TestDecodeMemoCapacityAndIsolation(t *testing.T) {
	const slots = memoSets * memoWays
	codecs := make([]*Codec, 12)
	for i := range codecs {
		codecs[i] = memoCodec(6+2*(i%2), uint64(20+i))
	}
	m := NewDecodeMemo()
	rng := mat.NewRNG(77)
	// The same row bits for every codec of one width: isolation is by stamp.
	rows := map[int]*mat.Dense{6: randomRows(rng, 3*slots/len(codecs), 6, 3*slots), 8: randomRows(rng, 3*slots/len(codecs), 8, 3*slots)}
	const batch = 128
	for lo := 0; lo+batch <= rows[6].Rows; lo += batch {
		for _, c := range codecs {
			all := rows[c.FeatureDim()]
			view := &mat.Dense{Rows: batch, Cols: all.Cols, Data: all.Data[lo*all.Cols : (lo+batch)*all.Cols]}
			requireMemoMatchesDirect(t, m, c, view, "fill")
			old := rng.Intn(lo + 1)
			view = &mat.Dense{Rows: batch, Cols: all.Cols, Data: all.Data[old*all.Cols : (old+batch)*all.Cols]}
			requireMemoMatchesDirect(t, m, c, view, "re-read")
		}
	}
	st := m.Stats()
	if st.Inserts <= slots || st.Replaced == 0 || st.Hits == 0 {
		t.Fatalf("the run did not put the table under pressure: %+v for %d slots", st, slots)
	}
	if st.Replaced > st.Inserts || st.Hits > st.Lookups {
		t.Fatalf("inconsistent counters %+v", st)
	}
}

// TestDecodeMemoConcurrent shares one memo between eight goroutines: all
// of them decode with one shared codec (a general model), and each also
// with a codec of its own that it rewrites between messages (an individual
// model under its user's lock). Run under -race.
func TestDecodeMemoConcurrent(t *testing.T) {
	shared := memoCodec(8, 40)
	m := NewDecodeMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := memoCodec(8, uint64(41+g))
			rng := mat.NewRNG(uint64(g))
			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			// A small common pool, so goroutines race to insert the same keys.
			pool := randomRows(mat.NewRNG(99), 64, 8, 64)
			feats := mat.NewDense(48, 8)
			want, got := make([]int, 48), make([]int, 48)
			for iter := 0; iter < 150; iter++ {
				for i := 0; i < feats.Rows; i++ {
					copy(feats.Row(i), pool.Row(rng.Intn(pool.Rows)))
				}
				for _, c := range []*Codec{shared, own} {
					sc.Reset()
					c.DecodeFeaturesInto(sc, feats, want)
					m.DecodeFeaturesInto(sc, c, feats, got)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("goroutine %d, iteration %d: memoized decode differs from direct", g, iter)
						return
					}
				}
				if iter%10 == 9 {
					mat.Scale(own.DecoderParams().ByName(ParamOutW).Data, -1)
				}
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.Hits == 0 || st.Inserts == 0 || st.Hits >= st.Lookups {
		t.Fatalf("implausible counters after a concurrent run: %+v", st)
	}
}

// TestDecodeMemoFootprintIsFlat is the soak: a million distinct rows leave
// the process heap where it was, because the table is one fixed-size
// allocation and a lookup or insert allocates nothing.
func TestDecodeMemoFootprintIsFlat(t *testing.T) {
	if size := unsafe.Sizeof(DecodeMemo{}) + unsafe.Sizeof([memoSets]memoSet{}); size > 168<<10 {
		t.Fatalf("DecodeMemo is %d bytes; the rss_mb budget it was sized for is 160 KB per edge server", size)
	}
	c := memoCodec(8, 1)
	m := NewDecodeMemo()
	if m.sets != nil {
		t.Fatal("a memo that has decoded nothing already holds its table: a sender-only server would pay 160 KB for it")
	}
	if testing.Short() || mat.RaceEnabled {
		t.Skip("1M-row soak skipped under -short / -race")
	}
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	const batch, total = 256, 1 << 20
	feats := mat.NewDense(batch, 8)
	dst := make([]int, batch)
	rng := mat.NewRNG(1)
	round := func() {
		for i := range feats.Data {
			feats.Data[i] = rng.Float64()
		}
		sc.Reset()
		m.DecodeFeaturesInto(sc, c, feats, dst)
	}
	round() // scratch arena reaches its high-water mark
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for n := 0; n < total; n += batch {
		round()
	}
	after := heap()
	if st := m.Stats(); st.Inserts < total {
		t.Fatalf("soak inserted %d rows, want >= %d", st.Inserts, total)
	}
	if after > before+64<<10 {
		t.Fatalf("heap grew from %d to %d bytes over %d distinct rows", before, after, total)
	}
	runtime.KeepAlive(m)
}

// TestDecodeMemoZeroAllocs pins the warm memo path — all hits, and a mixed
// message whose misses run the kernel — at zero heap allocations.
func TestDecodeMemoZeroAllocs(t *testing.T) {
	if mat.RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	c := memoCodec(8, 2)
	m := NewDecodeMemo()
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	rng := mat.NewRNG(5)
	feats := randomRows(rng, 96, 8, 60)
	dst := make([]int, 96)
	message := func() {
		sc.Reset()
		row := feats.Row(rng.Intn(96))
		row[0] = rng.Float64() // one fresh row per message: a one-row miss batch
		m.DecodeFeaturesInto(sc, c, feats, dst)
	}
	message()
	if allocs := testing.AllocsPerRun(200, message); allocs != 0 {
		t.Fatalf("memoized decode allocates %v times per message, want 0", allocs)
	}
}

// TestSemanticWritersRestamp: every way this package writes a codec's
// weights leaves a codec whose memoized decode equals a fresh kernel
// decode, on a memo that was warm with the old weights' answers. (The fl
// and edge writers are covered by the same table in internal/edge.)
func TestSemanticWritersRestamp(t *testing.T) {
	corp, trained := sharedFixtures(t)
	d := trained.Domain()
	var examples []Example
	gen := corpus.NewGenerator(corp, mat.NewRNG(3))
	for _, msg := range gen.Batch(d.Index, 60, nil) {
		examples = append(examples, ExamplesFromMessage(d, msg)...)
	}
	writers := []struct {
		name string
		// write changes c's weights in place, or returns the codec that
		// carries the changed weights.
		write func(c *Codec) *Codec
	}{
		{"FineTune", func(c *Codec) *Codec {
			c.FineTune(examples, 2, mat.NewRNG(1))
			return c
		}},
		{"TrainEpoch", func(c *Codec) *Codec { // the pretraining epoch
			c.TrainEpoch(examples, &nn.Adam{LR: 0.05, Clip: 5}, mat.NewRNG(2), 0.2)
			return c
		}},
		{"Params", func(c *Codec) *Codec {
			mat.Scale(c.Params().ByName(ParamOutW).Data, -1)
			return c
		}},
		{"DecoderParams", func(c *Codec) *Codec {
			mat.Scale(c.DecoderParams().ByName(ParamDecW).Data, -1)
			return c
		}},
		{"Clone", func(c *Codec) *Codec {
			out := c.Clone()
			mat.Scale(out.Params().ByName(ParamOutW).Data, -1)
			return out
		}},
		{"ReadCodec", func(c *Codec) *Codec { // ParseCodec, behind the reader
			mat.Scale(c.Params().ByName(ParamOutB).Data, -3)
			b, err := c.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			out, err := ReadCodec(bytes.NewReader(b), corp)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"WithParams", func(c *Codec) *Codec {
			ps := c.params().Clone()
			mat.Scale(ps.ByName(ParamOutB).Data, -3)
			out, err := c.WithParams(ps)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	}
	rng := mat.NewRNG(8)
	feats := randomRows(rng, 400, trained.FeatureDim(), 400)
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			c := trained.Clone()
			m := NewDecodeMemo()
			requireMemoMatchesDirect(t, m, c, feats, "before the write")
			sc := mat.GetScratch()
			defer mat.PutScratch(sc)
			old, changed := make([]int, feats.Rows), make([]int, feats.Rows)
			c.DecodeFeaturesInto(sc, feats, old)
			c = w.write(c)
			c.DecodeFeaturesInto(sc, feats, changed)
			if reflect.DeepEqual(old, changed) {
				t.Fatal("the write changed no decode: the case proves nothing")
			}
			requireMemoMatchesDirect(t, m, c, feats, "after the write")
		})
	}
}

// TestReadOnlyAccessKeepsStamp: sizing, serializing and shape-checking a
// codec — what a cache Put, a handover export and a handover import do to
// a model that keeps serving — must not orphan its memo entries.
func TestReadOnlyAccessKeepsStamp(t *testing.T) {
	_, c := sharedFixtures(t)
	stamp := c.stamp.Load()
	c.SizeBytes()
	c.EncoderSizeBytes()
	c.DecoderSizeBytes()
	if _, err := c.AppendTo(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendParams(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WithParams(c.params().Clone()); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckParamShape(c.Clone().Params()); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Evaluate([]Example{{SurfaceID: 1, ConceptID: 1}})
	if got := c.stamp.Load(); got != stamp {
		t.Fatalf("read-only access moved the stamp %d -> %d", stamp, got)
	}
}

// TestCodecTensorDoorsAreStamped is the guard against a new way to the
// weights that forgets the stamp. By reflection: Codec has no exported
// field, and every exported method that returns parameter storage is one
// of the two stamping doors (and does restamp). By source: the
// unexported read-only accessors are called only from the functions listed
// here, each of which has been read and only reads. A new door, or a new
// caller, fails until it is added — after checking that it stamps.
func TestCodecTensorDoorsAreStamped(t *testing.T) {
	typ := reflect.TypeOf(&Codec{})
	for i := 0; i < typ.Elem().NumField(); i++ {
		if f := typ.Elem().Field(i); f.IsExported() {
			t.Errorf("Codec.%s is exported: tensors must stay behind the stamping doors", f.Name)
		}
	}
	doors := map[string]bool{"Params": true, "DecoderParams": true}
	storage := map[reflect.Type]bool{
		reflect.TypeOf(&nn.ParamSet{}):  true,
		reflect.TypeOf(nn.ParamSet{}):   true,
		reflect.TypeOf(nn.Param{}):      true,
		reflect.TypeOf([]nn.Param{}):    true,
		reflect.TypeOf(&nn.Linear{}):    true,
		reflect.TypeOf(&nn.Embedding{}): true,
	}
	// *mat.Dense results are scratch-owned feature matrices (copies of
	// sender-table rows), never weights and never the table's own storage.
	scratchOwned := map[string]bool{"EncodeWordsInto": true, "EncodeSurfaceIDsInto": true}
	_, c := sharedFixtures(t)
	c = c.Clone()
	for i := 0; i < typ.NumMethod(); i++ {
		meth := typ.Method(i)
		for o := 0; o < meth.Type.NumOut(); o++ {
			out := meth.Type.Out(o)
			if out == reflect.TypeOf(&mat.Dense{}) && !scratchOwned[meth.Name] {
				t.Errorf("Codec.%s returns a *mat.Dense: is it weight storage?", meth.Name)
			}
			if !storage[out] {
				continue
			}
			if !doors[meth.Name] {
				t.Errorf("Codec.%s hands out %v but is not a known stamping door", meth.Name, out)
				continue
			}
			before := c.stamp.Load()
			meth.Func.Call([]reflect.Value{reflect.ValueOf(c)})
			if c.stamp.Load() == before {
				t.Errorf("Codec.%s handed out tensors without restamping", meth.Name)
			}
		}
	}

	readers := map[string]bool{
		// the doors themselves, after restamping
		"Params": true, "DecoderParams": true,
		// composition and pure reads
		"params": true, "encoderParams": true, "decoderParams": true,
		"SizeBytes": true, "EncoderSizeBytes": true, "DecoderSizeBytes": true,
		"AppendTo": true, "AppendParams": true, "CheckParamShape": true,
		// gradient buffers shaped like the parameters (ZeroClone)
		"newGrads": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var callers []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "params", "encoderParams", "decoderParams":
					if !readers[fn.Name.Name] {
						callers = append(callers, name+":"+fn.Name.Name+" calls "+sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	sort.Strings(callers)
	for _, c := range callers {
		t.Errorf("%s: an unlisted reader of the unstamped accessors", c)
	}
}

// BenchmarkDecodeMemo times one 96-row message through the memo, for local
// profiling only (nothing is asserted; a perf claim is a parent/change
// comparison on bench/run.sh): every row held, no row held, and the
// serving shape — a warm table with a couple of rows the channel flipped.
func BenchmarkDecodeMemo(b *testing.B) {
	const rows = 96
	c := memoCodec(8, 2)
	sc := mat.GetScratch()
	defer mat.PutScratch(sc)
	dst := make([]int, rows)
	for _, bc := range []struct {
		name  string
		fresh int // rows rewritten before every message
	}{{"hit", 0}, {"miss", rows}, {"mixed-96", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewDecodeMemo()
			feats := randomRows(mat.NewRNG(1), rows, 8, rows)
			m.DecodeFeaturesInto(sc, c, feats, dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < bc.fresh; k++ {
					// A row no earlier message held, at the cost of one store.
					feats.Row((i + k*37) % rows)[k%8] = float64(i*rows+k) * 1e-9
				}
				sc.Reset()
				m.DecodeFeaturesInto(sc, c, feats, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}

	// The long_msg shape: eight models of 95 distinct rows each share the
	// memo and every message is 96 rows of one model. What it shows that
	// the single-model cases cannot is the re-miss rate of a table 37 %
	// full (which is what chose four ways over two).
	b.Run("resident-8x95", func(b *testing.B) {
		const models, surfaces = 8, 95
		rng := mat.NewRNG(3)
		codecs := make([]*Codec, models)
		pools := make([]*mat.Dense, models)
		for i := range codecs {
			codecs[i] = memoCodec(8, uint64(i+1))
			pools[i] = randomRows(rng, surfaces, 8, surfaces)
		}
		m := NewDecodeMemo()
		feats := mat.NewDense(rows, 8)
		message := func(i int) {
			pool := pools[i%models]
			for r := 0; r < rows; r++ {
				copy(feats.Row(r), pool.Row(rng.Intn(surfaces)))
			}
			sc.Reset()
			m.DecodeFeaturesInto(sc, codecs[i%models], feats, dst)
		}
		for i := 0; i < 20*models; i++ {
			message(i)
		}
		before := m.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			message(i)
		}
		after := m.Stats()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		b.ReportMetric(100*(1-float64(after.Hits-before.Hits)/float64(after.Lookups-before.Lookups)), "miss%")
	})
}
