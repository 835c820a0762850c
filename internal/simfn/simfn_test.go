package simfn

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestQGramJaccardIdentity(t *testing.T) {
	f := QGramJaccard{Q: 3}
	for _, s := range []string{"", "a", "ab", "abc", "SIGMOD Conference", "日本語テキスト"} {
		if got := f.Sim(s, s); got != 1 {
			t.Errorf("Sim(%q,%q) = %v, want 1", s, s, got)
		}
	}
}

func TestQGramJaccardDisjoint(t *testing.T) {
	f := QGramJaccard{Q: 3}
	if got := f.Sim("aaaa", "bbbb"); got != 0 {
		t.Errorf("disjoint strings: got %v, want 0", got)
	}
	if got := f.Sim("abc", ""); got != 0 {
		t.Errorf("vs empty: got %v, want 0", got)
	}
}

func TestQGramJaccardKnownValue(t *testing.T) {
	// "abcd" -> {abc, bcd}; "abce" -> {abc, bce}; intersection 1, union 3.
	f := QGramJaccard{Q: 3}
	if got, want := f.Sim("abcd", "abce"), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestQGramJaccardDefaultQ(t *testing.T) {
	var f QGramJaccard // zero value must behave as Q=3
	if got, want := f.Sim("abcd", "abce"), 1.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-value Q: got %v, want %v", got, want)
	}
	if f.Name() != "3gram-jaccard" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestQGramJaccardSymmetricAndBounded(t *testing.T) {
	f := QGramJaccard{Q: 3}
	err := quick.Check(func(a, b string) bool {
		s1, s2 := f.Sim(a, b), f.Sim(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestTokenJaccard(t *testing.T) {
	f := TokenJaccard{}
	cases := []struct {
		a, b string
		want float64
	}{
		{"a b c", "a b c", 1},
		{"a b", "b a", 1},
		{"a b c d", "a b", 0.5},
		{"x", "y", 0},
		{"", "", 1},
		{"  spaced   out  ", "spaced out", 1},
	}
	for _, c := range cases {
		if got := f.Sim(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Sim(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"日本語", "日本", 1},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditSimBounds(t *testing.T) {
	f := EditSim{}
	err := quick.Check(func(a, b string) bool {
		s := f.Sim(a, b)
		return s >= 0 && s <= 1 && s == f.Sim(b, a)
	}, nil)
	if err != nil {
		t.Error(err)
	}
	if f.Sim("abc", "abc") != 1 {
		t.Error("identical strings must have similarity 1")
	}
}

func TestEditDistanceTriangleInequality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	err := quick.Check(func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			a, b, c = trunc(a, 30), trunc(b, 30), trunc(c, 30)
		}
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func trunc(s string, n int) string {
	r := []rune(s)
	if len(r) > n {
		return string(r[:n])
	}
	return s
}

func TestNumericSim(t *testing.T) {
	// Mirrors Example 2: year similarity with range 10.
	f := Numeric{Min: 1995, Max: 2005}
	if got := f.Sim("2001", "2001"); got != 1 {
		t.Errorf("equal years: got %v", got)
	}
	if got, want := f.Sim("2000", "1998"), 0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := f.Sim("1995", "2005"); got != 0 {
		t.Errorf("extremes: got %v, want 0", got)
	}
	if got := f.Sim("x", "x"); got != 1 {
		t.Errorf("unparsable equal: got %v, want 1", got)
	}
	if got := f.Sim("x", "2001"); got != 0 {
		t.Errorf("unparsable unequal: got %v, want 0", got)
	}
}

func TestNumericInvertAchievesTarget(t *testing.T) {
	f := Numeric{Min: 1990, Max: 2010}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		// From the midpoint, targets in [0.5, 1] are reachable: the required
		// offset (1-target)*20 <= 10 fits inside the range. The output is
		// rendered at the input's precision (integers here), so the achieved
		// similarity may be off by up to half a unit over the span.
		target := 0.5 + r.Float64()/2
		v, sim := f.Invert("2000", target, r.Float64)
		if math.Abs(sim-target) > 0.5/20+1e-9 {
			t.Fatalf("Invert target=%v: got value %q with sim %v", target, v, sim)
		}
	}
}

func TestNumericInvertKeepsDecimalPrecision(t *testing.T) {
	f := Numeric{Min: 0, Max: 100}
	r := rand.New(rand.NewSource(5))
	v, _ := f.Invert("19.99", 0.8, r.Float64)
	if !strings.Contains(v, ".") || len(v)-strings.Index(v, ".")-1 != 2 {
		t.Errorf("expected two-decimal output, got %q", v)
	}
	v, _ = f.Invert("20", 0.8, r.Float64)
	if strings.Contains(v, ".") {
		t.Errorf("expected integer output, got %q", v)
	}
}

func TestNumericInvertUnreachableTargetClamps(t *testing.T) {
	// From the midpoint of [1990, 2010], a target below 0.5 needs an offset
	// larger than the half-range; Invert must clamp to a boundary, yielding
	// the closest achievable similarity (0.5).
	f := Numeric{Min: 1990, Max: 2010}
	r := rand.New(rand.NewSource(9))
	v, sim := f.Invert("2000", 0.1, r.Float64)
	if v != "1990" && v != "2010" {
		t.Fatalf("expected boundary value, got %q", v)
	}
	if math.Abs(sim-0.5) > 0.06 {
		t.Fatalf("sim = %v, want 0.5 (closest achievable)", sim)
	}
}

func TestNumericInvertClampsToRange(t *testing.T) {
	f := Numeric{Min: 0, Max: 10}
	r := rand.New(rand.NewSource(7))
	// From the boundary, one branch falls outside the range; the other must
	// be chosen.
	for i := 0; i < 50; i++ {
		v, sim := f.Invert("0", 0.5, r.Float64)
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 || x > 10 {
			t.Fatalf("Invert produced out-of-range value %q", v)
		}
		if math.Abs(sim-0.5) > 0.06 {
			t.Fatalf("sim = %v, want 0.5", sim)
		}
	}
}

func TestNumericInvertBothBranches(t *testing.T) {
	f := Numeric{Min: 1990, Max: 2010}
	seen := map[string]bool{}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		v, _ := f.Invert("2000", 0.9, r.Float64)
		seen[v] = true
	}
	if !seen["1998"] || !seen["2002"] {
		t.Errorf("expected both ± roots (1998 and 2002), got %v", seen)
	}
}

func TestExact(t *testing.T) {
	f := Exact{}
	if f.Sim("a", "a") != 1 || f.Sim("a", "b") != 0 {
		t.Error("Exact misbehaves")
	}
}

func TestDateDelegatesToNumeric(t *testing.T) {
	d := Date{Min: 0, Max: 365}
	n := Numeric{Min: 0, Max: 365}
	if d.Sim("10", "100") != n.Sim("10", "100") {
		t.Error("Date.Sim must equal Numeric.Sim")
	}
	r := rand.New(rand.NewSource(1))
	_, sim := d.Invert("100", 0.75, r.Float64)
	if math.Abs(sim-0.75) > 0.01 {
		t.Errorf("Date.Invert sim = %v", sim)
	}
}

func TestQGrams(t *testing.T) {
	g := QGrams("abcd", 3)
	if len(g) != 2 {
		t.Fatalf("QGrams(abcd,3) size = %d, want 2", len(g))
	}
	for _, want := range []string{"abc", "bcd"} {
		if _, ok := g[want]; !ok {
			t.Errorf("missing gram %q", want)
		}
	}
	if got := QGrams("ab", 3); len(got) != 1 {
		t.Errorf("short string should yield one gram, got %d", len(got))
	}
	if got := QGrams("", 3); len(got) != 0 {
		t.Errorf("empty string should yield no grams, got %d", len(got))
	}
}

// TestMaskDistanceBound checks that the rune-set bound never exceeds the
// edit distance, over random pairs with invalid bytes, multi-byte runes
// and runes that share a bit (r and r+64), and that it is tight on
// disjoint rune sets.
func TestMaskDistanceBound(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	alphabet := []string{"a", "b", "c", "A", "\u00a1", "\u00a2", "é", "日", "本", "\xff", "\xfe", "\uFFFD", " "}
	word := func() string {
		var b strings.Builder
		for n := r.Intn(10); n > 0; n-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 5000; i++ {
		a, b := word(), word()
		if lb, d := MaskDistanceBound(RuneMask(a), RuneMask(b)), EditDistance(a, b); lb > d {
			t.Fatalf("MaskDistanceBound(%q, %q) = %d > EditDistance %d", a, b, lb, d)
		}
	}
	if got := MaskDistanceBound(RuneMask("abc"), RuneMask("xyz")); got != 3 {
		t.Errorf("bound on disjoint sets = %d, want 3", got)
	}
	if RuneMask("\xff") != RuneMask("\uFFFD") {
		t.Error("an invalid byte must count as U+FFFD")
	}
}

// TestEditDistanceWithin pins the bounded distance to the full one: for
// every pair and k, min(within, k+1) == min(EditDistance, k+1).
func TestEditDistanceWithin(t *testing.T) {
	long := strings.Repeat("abcdefghij", 5) // past the stack buffers
	pairs := [][2]string{
		{"", ""}, {"", "abc"}, {"abc", ""}, {"kitten", "kitten"},
		{"kitten", "sitting"}, {"flaw", "lawn"}, {"a", "abcdef"},
		{"café", "cafe"}, {"日本語", "日本"}, {"naïve", "naive"},
		{"ab\xff", "ab\xfe"}, {"ab\xff", "ab\uFFFD"},
		{long, long + "x"}, {long, "x" + long[1:]}, {long, strings.ToUpper(long)},
	}
	r := rand.New(rand.NewSource(9))
	alphabet := []rune("abcé日 ")
	word := func() string {
		rs := make([]rune, r.Intn(9))
		for i := range rs {
			rs[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for i := 0; i < 500; i++ {
		pairs = append(pairs, [2]string{word(), word()})
	}
	capAt := func(d, k int) int { return min(d, k+1) }
	for _, p := range pairs {
		full := EditDistance(p[0], p[1])
		for k := 0; k <= 4; k++ {
			if got := EditDistanceWithin(p[0], p[1], k); capAt(got, k) != capAt(full, k) {
				t.Errorf("EditDistanceWithin(%q, %q, %d) = %d, EditDistance = %d", p[0], p[1], k, got, full)
			}
		}
	}
}
