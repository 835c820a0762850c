package gmm

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"serd/internal/parallel"
)

// checkRow fails t unless the E-step's log-density ll and
// responsibilities gamma for x equal the single-row forms, LogPDF and
// Responsibilities, bit for bit; a NaN equals any NaN, whatever its
// payload.
func checkRow(t testing.TB, label string, m *Model, x, gamma []float64, ll float64) {
	t.Helper()
	if want := m.LogPDF(x); !sameFloat(ll, want) {
		t.Fatalf("%s x=%v: log-density %v, single row %v", label, x, ll, want)
	}
	for k, want := range m.Responsibilities(x) {
		if !sameFloat(gamma[k], want) {
			t.Fatalf("%s x=%v: γ[%d] = %v, single row %v", label, x, k, gamma[k], want)
		}
	}
}

// estepRows draws n rows in [0, 1]^dim; about one in four is replaced by
// a row holding NaN, +Inf or −Inf, or one so far out that every
// component's log-density is −Inf.
func estepRows(r *rand.Rand, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			x[j] = r.Float64()
		}
		switch r.Intn(8) {
		case 0:
			x[r.Intn(dim)] = math.NaN()
		case 1:
			x[r.Intn(dim)] = math.Inf(1)
		case 2:
			x[r.Intn(dim)] = math.Inf(-1)
		case 3:
			for j := range x {
				x[j] = 1e200
			}
		}
		xs[i] = x
	}
	return xs
}

// TestEStepPairMatchesSingleRow pins the two-row E-step bit for bit to the
// single-row forms (LogPDF and Responsibilities, which
// TestLogSumExpMatchesExpFormula pins to the all-math.Exp formulas): odd
// and even row counts, serial and pooled, rows holding NaN and ±Inf, rows
// where every component's log-density is −Inf, and the fallbacks past the
// stack buffers (g > maxStackComps, dim > 16).
func TestEStepPairMatchesSingleRow(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var nonFinite, deadRows int
	for _, shape := range []struct{ g, dim int }{
		{1, 1}, {3, 4}, {4, 5}, {maxStackComps, 16}, {maxStackComps + 2, 3}, {2, 17}, {maxStackComps + 1, 18},
	} {
		m := randomModel(t, r, shape.g, shape.dim)
		for _, n := range []int{1, 2, 7, 40, 41} {
			xs := estepRows(r, n, shape.dim)
			for _, workers := range []int{1, 2, 3} {
				gamma := make([][]float64, n)
				for i := range gamma {
					gamma[i] = make([]float64, shape.g)
				}
				lls := make([]float64, n)
				estep(m, xs, gamma, lls, parallel.New(workers, nil))
				label := fmt.Sprintf("g=%d dim=%d n=%d workers=%d", shape.g, shape.dim, n, workers)
				for i, x := range xs {
					checkRow(t, label, m, x, gamma[i], lls[i])
					for _, v := range x {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							nonFinite++
							break
						}
					}
					if math.IsInf(lls[i], -1) {
						deadRows++
					}
				}
			}
		}
	}
	if nonFinite == 0 || deadRows == 0 {
		t.Fatalf("rows holding NaN or ±Inf: %d, with every component at −Inf: %d; want both > 0", nonFinite, deadRows)
	}
}

// fuzzRow decodes dim floats from raw, 8 bytes each from float offset
// off, 0.5 past its end. A chunk with its low bit set is taken as raw
// float64 bits (NaN, ±Inf, subnormals and all); otherwise its top 53
// bits give a value in [0, 1).
func fuzzRow(raw []byte, off, dim int) []float64 {
	x := make([]float64, dim)
	for j := range x {
		x[j] = 0.5
		if p := (off + j) * 8; p+8 <= len(raw) {
			u := binary.LittleEndian.Uint64(raw[p:])
			if u&1 == 1 {
				x[j] = math.Float64frombits(u)
			} else {
				x[j] = float64(u>>11) / (1 << 53)
			}
		}
	}
	return x
}

// FuzzEStepPair checks the two-row E-step kernel against two single-row
// evaluations, bit for bit, on mixtures of 1..10 components in 1..18
// dimensions and arbitrary rows.
func FuzzEStepPair(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(33), []byte("\x00\x00\x00\x00\x00\x00\xe0\x3f\x01\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add(int64(3), uint8(169), []byte("\x01\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\xf0\xff"))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, raw []byte) {
		g, dim := 1+int(shape%10), 1+int(shape/10)%18
		m := randomModel(t, rand.New(rand.NewSource(seed)), g, dim)
		x0, x1 := fuzzRow(raw, 0, dim), fuzzRow(raw, dim, dim)
		g0, g1 := make([]float64, g), make([]float64, g)
		ll0, ll1 := m.respLogPDF2(x0, x1, g0, g1)
		checkRow(t, "row 0", m, x0, g0, ll0)
		checkRow(t, "row 1", m, x1, g1, ll1)
	})
}

// BenchmarkEStep measures one E-step over 5,610 DBLP-shaped rows under a
// fitted four-component mixture, serially.
func BenchmarkEStep(b *testing.B) {
	xs := dblpShapedVectors(rand.New(rand.NewSource(35)), 5610)
	m, err := Fit(context.Background(), xs, 4, FitOptions{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		b.Fatal(err)
	}
	gamma := make([][]float64, len(xs))
	for i := range gamma {
		gamma[i] = make([]float64, len(m.Comps))
	}
	lls := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estep(m, xs, gamma, lls, nil)
	}
}
