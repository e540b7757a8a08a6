package mat

// This file implements the blocked matrix-matrix kernels every layer runs
// on; a single example is a one-row matrix. Every kernel keeps the EXACT
// serial accumulation order for each individual output element, so results
// are bit-identical to the plain matrix-vector loops (dst = m·x, dst = mᵀ·x,
// m += a·x·yᵀ) applied row by row, which the tests keep as their oracle.
// Throughput comes not from reordering floating-point sums (which would
// change bits) but from interleaving several independent output elements'
// accumulation chains in the inner loop, hiding FP-add latency that a
// single serial dot product is bound by.

// MulMatT computes dst = a * bᵀ, where a is m x k, b is n x k and dst is
// m x n: the batched forward kernel of a Linear layer (rows of a are
// inputs, rows of b are weight rows). Each dst element is the serial dot
// product of one a-row and one b-row in ascending order — the order of
// the plain matrix-vector loop b·x — so results do not depend on how many
// rows a has. dst must not alias a or b. It panics on shape mismatches.
func MulMatT(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulMatT shape mismatch")
	}
	mulMatTRange(dst, a, b, nil, 0, a.Rows)
}

// MulMatTAddRow computes dst = a * bᵀ with row added to every output row:
// the fused batched linear-layer forward. Each output element is computed
// as (serial dot product) + row[j] — exactly the value MulMatT followed by
// AddRowTo produces, without the second sweep over dst — so results are
// bit-identical to the unfused pair. It panics on shape mismatches.
func MulMatTAddRow(dst, a, b *Dense, row []float64) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("mat: MulMatTAddRow shape mismatch")
	}
	if len(row) != dst.Cols {
		panic("mat: MulMatTAddRow row length mismatch")
	}
	mulMatTRange(dst, a, b, row, 0, a.Rows)
}

// mulMatTRange computes rows lo..hi of dst = a * bᵀ, adding bias[j] to
// each finished element when bias is non-nil. For each a-row it fills four
// output columns at a time: the four accumulator chains are independent
// (one per output element, each in exact serial order), which keeps the
// FPU busy where a lone serial dot would stall on add latency.
func mulMatTRange(dst, a, b *Dense, bias []float64, lo, hi int) {
	k := a.Cols
	n := b.Rows
	if useAVX2 && k > 0 && k%4 == 0 && n >= 4 && hi-lo >= 4 {
		// The assembly kernel works in 4-row x 4-column tiles. A range
		// that is not a multiple of four is finished by one more band of
		// tiles aligned to its END: the overlap is computed twice, to the
		// same bits.
		gemmTRows(dst, a, b, bias, lo, (hi-lo)&^3)
		if (hi-lo)%4 != 0 {
			gemmTRows(dst, a, b, bias, hi-4, 4)
		}
		return
	}
	for i := lo; i < hi; i++ {
		ar := a.Data[i*k : (i+1)*k]
		out := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			// Slicing every operand to len(ar) lets the compiler drop the
			// per-iteration bounds checks in the dot loop.
			b0 := b.Data[j*k:][:len(ar)]
			b1 := b.Data[(j+1)*k:][:len(ar)]
			b2 := b.Data[(j+2)*k:][:len(ar)]
			b3 := b.Data[(j+3)*k:][:len(ar)]
			var s0, s1, s2, s3 float64
			for p, av := range ar {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if bias != nil {
				// The bias lands after the full dot product, exactly like
				// a separate AddRowTo pass, so fusion never changes bits.
				s0 += bias[j]
				s1 += bias[j+1]
				s2 += bias[j+2]
				s3 += bias[j+3]
			}
			out[j] = s0
			out[j+1] = s1
			out[j+2] = s2
			out[j+3] = s3
		}
		for ; j < n; j++ {
			br := b.Data[j*k:][:len(ar)]
			s := 0.0
			for p, av := range ar {
				s += av * br[p]
			}
			if bias != nil {
				s += bias[j]
			}
			out[j] = s
		}
	}
}

// gemmTRows runs f64GemmT over rows i0..i0+rows (rows a multiple of four)
// and every column: the first n&^3 columns, then — when n is not a
// multiple of four — the last four, overlapping the columns already done.
func gemmTRows(dst, a, b *Dense, bias []float64, i0, rows int) {
	k := a.Cols
	n := b.Rows
	var b0, bt *float64
	if bias != nil {
		b0, bt = &bias[0], &bias[n-4]
	}
	f64GemmT(&dst.Data[i0*n], &a.Data[i0*k], &b.Data[0], b0, rows, n&^3, k, n)
	if n%4 != 0 {
		f64GemmT(&dst.Data[i0*n+n-4], &a.Data[i0*k], &b.Data[(n-4)*k], bt, rows, 4, k, n)
	}
}

// MulMat computes dst = a * b, where a is m x k, b is k x n and dst is
// m x n: the batched input-gradient kernel (dst rows are per-example
// gradients, b is the weight matrix). Each dst element accumulates b-rows
// in ascending order and skips zero a-elements, exactly like the plain
// bᵀ·x loop, so results do not depend on how many rows a has. dst must not
// alias a or b. It panics on shape mismatches.
func MulMat(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulMat shape mismatch")
	}
	mulMatRange(dst, a, b, 0, a.Rows)
}

// mulMatRange computes rows lo..hi of dst = a * b in AXPY form: out += ap *
// b-row. The adds across one output row are independent, so the plain loop
// already has instruction-level parallelism; the per-element order over p
// (ascending, zeros skipped) matches the plain bᵀ·x loop — and
// f64AxpyRows, which runs the same sum with the output row held in
// registers.
func mulMatRange(dst, a, b *Dense, lo, hi int) {
	k := a.Cols
	n := b.Cols
	for i := lo; i < hi; i++ {
		out := dst.Data[i*n : (i+1)*n]
		Zero(out)
		if useAVX2 {
			f64AxpyRows(&out[0], n, &a.Data[i*k], 1, 1, &b.Data[0], n, k)
			continue
		}
		ar := a.Data[i*k : (i+1)*k]
		for p, ap := range ar {
			if ap == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j, bv := range br {
				out[j] += ap * bv
			}
		}
	}
}

// AddOuterBatch accumulates m += a * xᵀ * y, where x is t x Rows and y is
// t x Cols: the batched weight-gradient kernel, equivalent to adding the
// outer product a·x.Row(i)·y.Row(i)ᵀ for every row i in order. Each m
// element accumulates examples in ascending row order and skips zero
// coefficients, exactly like that per-example outer-product loop, so
// results are bit-identical to it. It panics on shape mismatches.
func AddOuterBatch(m *Dense, a float64, x, y *Dense) {
	if x.Rows != y.Rows || x.Cols != m.Rows || y.Cols != m.Cols {
		panic("mat: AddOuterBatch shape mismatch")
	}
	addOuterBatchRange(m, a, x, y, 0, m.Rows)
}

// addOuterBatchRange accumulates rows lo..hi of m += a * xᵀ * y: per m-row
// the same AXPY sum as mulMatRange, the coefficients being a column of x.
func addOuterBatchRange(m *Dense, a float64, x, y *Dense, lo, hi int) {
	t := x.Rows
	xc := x.Cols
	yc := y.Cols
	if useAVX2 {
		for r := lo; r < hi; r++ {
			f64AxpyRows(&m.Data[r*m.Cols], m.Cols, &x.Data[r], xc, a, &y.Data[0], yc, t)
		}
		return
	}
	for r := lo; r < hi; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for e := 0; e < t; e++ {
			v := a * x.Data[e*xc+r]
			if v == 0 {
				continue
			}
			yr := y.Data[e*yc : (e+1)*yc]
			for j, yv := range yr {
				row[j] += v * yv
			}
		}
	}
}

// AddRowTo adds vector row into every row of m: the batched bias add. The
// per-row operation is exactly AddTo, so it is bit-identical to adding the
// bias example by example. It panics on length mismatch.
func AddRowTo(m *Dense, row []float64) {
	if len(row) != m.Cols {
		panic("mat: AddRowTo length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		AddTo(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
}

// AddRowsTo adds every row of m into dst, in ascending row order: the
// batched bias gradient, bit-identical to one AddTo per row. The kernel
// runs it as f64AxpyRows with coefficient 1 at stride 0 — 1·x is x, and
// the destination accumulates the rows in the same order. It panics on
// length mismatch.
func AddRowsTo(dst []float64, m *Dense) {
	if len(dst) != m.Cols {
		panic("mat: AddRowsTo length mismatch")
	}
	if useAVX2 && m.Rows > 0 && m.Cols > 0 {
		one := 1.0
		f64AxpyRows(&dst[0], m.Cols, &one, 0, 1, &m.Data[0], m.Cols, m.Rows)
		return
	}
	for i := 0; i < m.Rows; i++ {
		AddTo(dst, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}
