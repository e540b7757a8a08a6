package mat

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set mismatch")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row is not a view")
	}
}

func TestDensePanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(0, 3)
}

// TestMulVec: m·x as a one-row MulMatT.
func TestMulVec(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	MulMatT(rowOf(dst), rowOf([]float64{1, 1, 1}), m)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("m·x = %v", dst)
	}
}

// TestMulVecT: mᵀ·x as a one-row MulMat.
func TestMulVecT(t *testing.T) {
	m := NewDense(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 3)
	MulMat(rowOf(dst), rowOf([]float64{1, 1}), m)
	if dst[0] != 5 || dst[1] != 7 || dst[2] != 9 {
		t.Fatalf("mᵀ·x = %v", dst)
	}
}

// TestAddOuter: m += a·x·yᵀ as a one-row AddOuterBatch.
func TestAddOuter(t *testing.T) {
	m := NewDense(2, 2)
	AddOuterBatch(m, 2, rowOf([]float64{1, 2}), rowOf([]float64{3, 4}))
	want := []float64{6, 8, 12, 16}
	for i, v := range want {
		if m.Data[i] != v {
			t.Fatalf("outer product data = %v, want %v", m.Data, want)
		}
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 0, 7)
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 7 {
		t.Fatal("Clone shares data")
	}
	m2 := NewDense(2, 2)
	m2.CopyFrom(m)
	if m2.At(0, 0) != 7 {
		t.Fatal("CopyFrom failed")
	}
}

func TestGlorotInitBounds(t *testing.T) {
	m := NewDense(8, 8)
	m.GlorotInit(NewRNG(1), 8, 8)
	limit := math.Sqrt(6.0 / 16.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
	// The matrix must not be all zeros.
	if MaxAbs(m.Data) == 0 {
		t.Fatal("GlorotInit produced all zeros")
	}
}

func TestDenseSerializationRoundTrip(t *testing.T) {
	m := NewDense(3, 5)
	m.Randomize(NewRNG(4), 2)
	prefix := []byte("prefix")
	b := m.AppendTo(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(b, prefix) {
		t.Fatal("AppendTo overwrote dst")
	}
	if n := len(b) - len(prefix); int64(n) != m.SizeBytes() {
		t.Fatalf("AppendTo wrote %d bytes, SizeBytes says %d", n, m.SizeBytes())
	}
	got, rest, err := ParseDense(append(b[len(prefix):], "next"...))
	if err != nil {
		t.Fatalf("ParseDense: %v", err)
	}
	if string(rest) != "next" {
		t.Fatalf("ParseDense left %q after the matrix, want %q", rest, "next")
	}
	if got.Rows != 3 || got.Cols != 5 {
		t.Fatalf("round-trip shape %dx%d", got.Rows, got.Cols)
	}
	for i := range m.Data {
		if m.Data[i] != got.Data[i] {
			t.Fatalf("round-trip data mismatch at %d", i)
		}
	}
}

// TestAppendToGrowsOnce: AppendTo sizes dst from SizeBytes, so appending
// one matrix costs at most one allocation, and none when dst has room.
func TestAppendToGrowsOnce(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	m := NewDense(40, 30)
	if got := testing.AllocsPerRun(20, func() { m.AppendTo(nil) }); got != 1 {
		t.Fatalf("AppendTo(nil) made %v allocations, want 1", got)
	}
	dst := make([]byte, 0, m.SizeBytes())
	if got := testing.AllocsPerRun(20, func() { m.AppendTo(dst) }); got != 0 {
		t.Fatalf("AppendTo into a buffer with room made %v allocations, want 0", got)
	}
}

func TestReadDenseRejectsGarbage(t *testing.T) {
	if _, _, err := ParseDense([]byte("not a matrix at all")); err == nil {
		t.Fatal("ParseDense accepted garbage")
	}
	if _, _, err := ParseDense(nil); err == nil {
		t.Fatal("ParseDense accepted empty input")
	}
}

// denseHeader builds a serialized-matrix header with the given dimensions.
func denseHeader(rows, cols uint32) []byte {
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:], denseMagic)
	binary.LittleEndian.PutUint32(hdr[4:], rows)
	binary.LittleEndian.PutUint32(hdr[8:], cols)
	return hdr
}

// Regression: headers whose rows*cols product overflows int on 32-bit
// platforms (e.g. 65536*65536 wraps to 0) must be rejected before any
// allocation, not accepted via the wrapped product.
func TestReadDenseRejectsElementCountOverflow(t *testing.T) {
	cases := []struct{ rows, cols uint32 }{
		{1 << 16, 1 << 16}, // product 2^32: wraps to 0 in 32-bit int
		{1 << 17, 1 << 16}, // product 2^33: wraps to 0 in 32-bit int
		{1 << 31, 3},       // rows itself is negative as a 32-bit int
		{1 << 15, 1 << 14}, // product 2^29: over the 2^28 element limit
	}
	for _, c := range cases {
		if _, _, err := ParseDense(denseHeader(c.rows, c.cols)); err == nil {
			t.Fatalf("ParseDense accepted %dx%d header", c.rows, c.cols)
		}
	}
	// A legitimate header still parses (the data section is just short),
	// and is refused before the matrix it names is allocated.
	short := append(denseHeader(1<<10, 1<<10), make([]byte, 64)...)
	var err error
	if n := allocatedBytes(func() { _, _, err = ParseDense(short) }); n > 4096 {
		t.Fatalf("ParseDense of a short 1024x1024 matrix allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("ParseDense with truncated data should error")
	}
}

// allocatedBytes returns the heap bytes one call of fn allocates: the
// mean over many calls after a warm-up one, all on one P, the way
// testing.AllocsPerRun counts allocations, so another goroutine's
// allocation in the window is spread over every call instead of charged
// to one.
func allocatedBytes(fn func()) uint64 {
	const runs = 100
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// Property: (Mᵀ)ᵀ x == M x is trivially true, but the one-row GEMMs for M x
// (MulMatT) and Mᵀ y (MulMat) must be consistent adjoints:
// <Mx, y> == <x, Mᵀy>.
func TestMulVecAdjointQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := NewDense(4, 6)
		m.Randomize(rng, 1)
		x := make([]float64, 6)
		y := make([]float64, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		mx := make([]float64, 4)
		MulMatT(rowOf(mx), rowOf(x), m)
		mty := make([]float64, 6)
		MulMat(rowOf(mty), rowOf(y), m)
		return almostEqual(Dot(mx, y), Dot(x, mty), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips exactly for random matrices.
func TestSerializationQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		m := NewDense(rows, cols)
		m.Randomize(rng, 10)
		got, rest, err := ParseDense(m.AppendTo(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.Rows != rows || got.Cols != cols {
			return false
		}
		for i := range m.Data {
			if m.Data[i] != got.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
