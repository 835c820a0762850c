package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// randomSPD returns a random symmetric positive definite k×k matrix
// A·Aᵀ + k·I.
func randomSPD(r *rand.Rand, k int) *Mat {
	a := NewMat(k, k)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	cov := a.Mul(a.T())
	for i := 0; i < k; i++ {
		cov.Add(i, i, float64(k))
	}
	return cov
}

// forwardSolveLogPDF is the reference MVN log density: the ForwardSolve
// formula LogPDF computed before its in-place solve.
func forwardSolveLogPDF(d *MVN, x []float64) float64 {
	k := len(d.mean)
	diff := make([]float64, k)
	for i := range diff {
		diff[i] = x[i] - d.mean[i]
	}
	y := ForwardSolve(d.chol, diff)
	quad := 0.0
	for _, v := range y {
		quad += v * v
	}
	logDet := 0.0
	for i := 0; i < k; i++ {
		logDet += 2 * math.Log(d.chol.At(i, i))
	}
	return -0.5 * (float64(k)*math.Log(2*math.Pi) + logDet + quad)
}

// TestMVNLogPDFMatchesForwardSolve pins LogPDF bit for bit to the
// ForwardSolve formula on random SPD covariances, across dims that use
// the stack buffer (k ≤ 16) and the allocating fallback.
func TestMVNLogPDFMatchesForwardSolve(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for k := 1; k <= 20; k++ {
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		d, err := NewMVN(mean, randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, k)
			for i := range x {
				x[i] = 3 * r.NormFloat64()
			}
			got, want := d.LogPDF(x), forwardSolveLogPDF(d, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: LogPDF = %v, ForwardSolve formula = %v", k, got, want)
			}
		}
	}
}

// TestMVNLogPDFAllocFree pins the density kernel allocation-free up to
// dimension 16.
func TestMVNLogPDFAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 4, 16} {
		d, err := NewMVN(make([]float64, k), randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, k)
		if n := testing.AllocsPerRun(100, func() { d.LogPDF(x) }); n != 0 {
			t.Errorf("k=%d: LogPDF allocates %v times per call", k, n)
		}
	}
}

// TestMVNLogPDF2MatchesLogPDF pins the two-point kernel bit for bit to
// two LogPDF calls, with NaN and ±Inf coordinates mixed in, across dims
// 1–20. The solves run in a reused scratch buffer left dirty by earlier
// calls and seeded with NaN, and in one too short, which takes the LogPDF
// fallback.
func TestMVNLogPDF2MatchesLogPDF(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200}
	scratch := make([]float64, 40)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	for k := 1; k <= 20; k++ {
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		d, err := NewMVN(mean, randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			x0, x1 := make([]float64, k), make([]float64, k)
			for i := range x0 {
				x0[i], x1[i] = 3*r.NormFloat64(), 3*r.NormFloat64()
			}
			if trial%4 == 0 {
				x1[r.Intn(k)] = specials[trial/4%len(specials)]
			}
			want0, want1 := d.LogPDF(x0), d.LogPDF(x1)
			for _, y := range [][]float64{scratch[:2*k], scratch[:2*k-1]} {
				got0, got1 := d.LogPDF2(x0, x1, y)
				if math.Float64bits(got0) != math.Float64bits(want0) || math.Float64bits(got1) != math.Float64bits(want1) {
					t.Fatalf("k=%d len(y)=%d x0=%v x1=%v: LogPDF2 = %v, %v; LogPDF = %v, %v", k, len(y), x0, x1, got0, got1, want0, want1)
				}
			}
		}
	}
}

// TestMVNLogPDFRowsMatchesLogPDF pins the four-row kernel bit for bit to
// one LogPDF call per row, with NaN and ±Inf coordinates mixed in, across
// dims 1–18 (past LogPDF's 16-coordinate stack buffer) and 0–9 rows, so
// that both the four-row body and the tail run. The solves run in a
// scratch buffer left dirty by earlier calls and seeded with NaN, and in
// one too short, which takes the LogPDF fallback for every row.
func TestMVNLogPDFRowsMatchesLogPDF(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e200}
	scratch := make([]float64, 4*18)
	for i := range scratch {
		scratch[i] = math.NaN()
	}
	for k := 1; k <= 18; k++ {
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		d, err := NewMVN(mean, randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		for rows := 0; rows <= 9; rows++ {
			xs := make([]float64, rows*k)
			for i := range xs {
				xs[i] = 3 * r.NormFloat64()
			}
			if rows > 0 {
				xs[r.Intn(len(xs))] = specials[(k+rows)%len(specials)]
			}
			for _, y := range [][]float64{scratch[:4*k], scratch[:4*k-1]} {
				checkLogPDFRows(t, d, xs, y)
			}
		}
	}
}

// checkLogPDFRows compares LogPDFRows over the rows of xs, with scratch
// y, to LogPDF on each row, bit for bit. Any NaN matches any NaN: which
// payload survives where two NaNs meet in a commutative operation is the
// compiler's choice (the fuzzer's instrumented build makes another), and
// Go fixes no NaN payload.
func checkLogPDFRows(t *testing.T, d *MVN, xs, y []float64) {
	t.Helper()
	k := d.Dim()
	out := make([]float64, len(xs)/k)
	d.LogPDFRows(xs, out, y)
	for i, got := range out {
		x := xs[i*k : (i+1)*k]
		want := d.LogPDF(x)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("k=%d rows=%d len(y)=%d row %d x=%v: LogPDFRows = %v, LogPDF = %v", k, len(out), len(y), i, x, got, want)
		}
	}
}

// FuzzLogPDFRows checks the four-row kernel against LogPDF on each row,
// bit for bit, for 0–9 rows in 1–18 dimensions, arbitrary coordinates
// (raw float64 bits: NaN, ±Inf, subnormals and all), and a scratch buffer
// at or below 4·Dim.
func FuzzLogPDFRows(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(57), []byte("\x00\x00\x00\x00\x00\x00\xe0\x3f\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(int64(3), uint8(200), []byte("\x01\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\xf0\xff"))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, raw []byte) {
		k, rows := 1+int(shape%18), int(shape/18)%10
		r := rand.New(rand.NewSource(seed))
		mean := make([]float64, k)
		for i := range mean {
			mean[i] = r.Float64()
		}
		d, err := NewMVN(mean, randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]float64, rows*k)
		for i := range xs {
			xs[i] = 0.5
			if p := i * 8; p+8 <= len(raw) {
				u := binary.LittleEndian.Uint64(raw[p:])
				if u&1 == 1 {
					xs[i] = math.Float64frombits(u)
				} else {
					xs[i] = float64(u>>11) / (1 << 53)
				}
			}
		}
		y := make([]float64, 4*k-int(shape&1))
		checkLogPDFRows(t, d, xs, y)
	})
}

// TestMVNLogPDF2AllocFree pins the two-point and four-row kernels
// allocation-free given their scratch.
func TestMVNLogPDF2AllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, k := range []int{1, 4, 16} {
		d, err := NewMVN(make([]float64, k), randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		x0, x1, y := make([]float64, k), make([]float64, k), make([]float64, 2*k)
		if n := testing.AllocsPerRun(100, func() { d.LogPDF2(x0, x1, y) }); n != 0 {
			t.Errorf("k=%d: LogPDF2 allocates %v times per call", k, n)
		}
		xs, out, y4 := make([]float64, 9*k), make([]float64, 9), make([]float64, 4*k)
		if n := testing.AllocsPerRun(100, func() { d.LogPDFRows(xs, out, y4) }); n != 0 {
			t.Errorf("k=%d: LogPDFRows allocates %v times per call", k, n)
		}
	}
}

// TestMVNSampleDrawsAndAllocs pins Sample to Dim NormFloat64 draws mapped
// through FromStandard, bit for bit and leaving the stream where those
// draws do, and to one allocation per draw (the returned vector) up to
// dimension 16; larger dims also allocate the draws.
func TestMVNSampleDrawsAndAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, k := range []int{1, 4, 16, 17} {
		d, err := NewMVN(make([]float64, k), randomSPD(r, k))
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := rand.New(rand.NewSource(int64(k))), rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 10; trial++ {
			got := d.Sample(ra)
			z, want := make([]float64, k), make([]float64, k)
			for i := range z {
				z[i] = rb.NormFloat64()
			}
			d.FromStandard(z, want)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("k=%d: Sample[%d] = %v, FromStandard of the same draws %v", k, i, got[i], want[i])
				}
			}
		}
		if ra.Int63() != rb.Int63() {
			t.Fatalf("k=%d: Sample left the stream elsewhere than %d draws per call", k, k)
		}
		want := 1.0
		if k > 16 {
			want = 2
		}
		if n := testing.AllocsPerRun(100, func() { d.Sample(ra) }); n != want {
			t.Errorf("k=%d: Sample allocates %v times per call, want %v", k, n, want)
		}
	}
}

var sinkFloat float64

func BenchmarkMVNLogPDF(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	d, err := NewMVN(make([]float64, 4), randomSPD(r, 4))
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = d.LogPDF(x)
	}
}

// BenchmarkMVNLogPDFRows measures the four-row kernel over one JSDPair
// stripe's worth of rows (3·32) in dimension 4.
func BenchmarkMVNLogPDFRows(b *testing.B) {
	r := rand.New(rand.NewSource(18))
	d, err := NewMVN(make([]float64, 4), randomSPD(r, 4))
	if err != nil {
		b.Fatal(err)
	}
	xs, out, y := make([]float64, 96*4), make([]float64, 96), make([]float64, 16)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.LogPDFRows(xs, out, y)
	}
}
