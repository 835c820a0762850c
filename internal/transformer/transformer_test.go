package transformer

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"serd/internal/nn"
)

func TestVocabRoundTrip(t *testing.T) {
	v := BuildVocab([]string{"hello", "world"})
	ids := v.Encode("hello", true)
	if ids[0] != BOS || ids[len(ids)-1] != EOS {
		t.Fatalf("wrap tokens missing: %v", ids)
	}
	if got := v.Decode(ids); got != "hello" {
		t.Errorf("Decode = %q", got)
	}
	// Unknown runes map to UNK and vanish on decode.
	ids = v.Encode("hezzo!", false)
	for _, id := range ids {
		if id >= v.Size() {
			t.Fatalf("id %d out of range %d", id, v.Size())
		}
	}
	if got := v.Decode(v.Encode("h!e", false)); got != "he" {
		t.Errorf("UNK handling: got %q", got)
	}
}

func TestVocabSize(t *testing.T) {
	v := BuildVocab([]string{"aab"})
	if v.Size() != 3+2 { // specials + {a, b}
		t.Errorf("Size = %d, want 5", v.Size())
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}, 1); err == nil {
		t.Error("nil vocab accepted")
	}
	v := BuildVocab([]string{"ab"})
	if _, err := New(Config{Vocab: v, DModel: 10, Heads: 4}, 1); err == nil {
		t.Error("indivisible DModel accepted")
	}
}

func tinyModel(t *testing.T, corpus []string) *Model {
	t.Helper()
	v := BuildVocab(corpus)
	m, err := New(Config{Vocab: v, DModel: 16, Heads: 2, EncLayers: 1, DecLayers: 1, FFDim: 32, MaxLen: 32}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLossFiniteAndPositive(t *testing.T) {
	m := tinyModel(t, []string{"abc def"})
	l := m.Loss("abc", "def")
	if l.Data[0] <= 0 || l.Data[0] > 100 {
		t.Errorf("loss = %v", l.Data[0])
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	// Overfit two fixed pairs; loss must drop sharply.
	pairs := [][2]string{{"abc", "abd"}, {"xyz", "xyw"}}
	var corpus []string
	for _, p := range pairs {
		corpus = append(corpus, p[0], p[1])
	}
	m := tinyModel(t, corpus)
	m.SetTrain(false) // deterministic loss for the comparison
	lossAt := func() float64 {
		s := 0.0
		for _, p := range pairs {
			s += m.Loss(p[0], p[1]).Data[0]
		}
		return s
	}
	before := lossAt()
	opt := nn.NewAdam(0.01)
	m.SetTrain(true)
	for step := 0; step < 60; step++ {
		nn.ZeroGrads(m.Params())
		for _, p := range pairs {
			m.Loss(p[0], p[1]).Backward()
		}
		opt.Step(m.Params())
	}
	m.SetTrain(false)
	after := lossAt()
	if after >= before*0.5 {
		t.Errorf("training did not reduce loss: %v -> %v", before, after)
	}
}

func TestGenerateProducesVocabStrings(t *testing.T) {
	corpus := []string{"hello world", "gopher tracks"}
	m := tinyModel(t, corpus)
	r := rand.New(rand.NewSource(1))
	out := m.Generate("hello", 1.0, r)
	if len(out) >= m.Config().MaxLen {
		t.Errorf("runaway generation: %d runes", len(out))
	}
	allowed := make(map[rune]bool)
	for _, s := range corpus {
		for _, c := range s {
			allowed[c] = true
		}
	}
	for _, c := range out {
		if !allowed[c] {
			t.Errorf("generated rune %q outside vocabulary", c)
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	m := tinyModel(t, []string{"abcabc"})
	r := rand.New(rand.NewSource(2))
	a := m.Generate("abc", 0, r)
	b := m.Generate("abc", 0, r)
	if a != b {
		t.Errorf("greedy decode not deterministic: %q vs %q", a, b)
	}
}

func TestOverfitCopyTask(t *testing.T) {
	// The canonical sanity check for a seq2seq stack: learn to copy a tiny
	// fixed string. Greedy decode must reproduce it after enough steps.
	if testing.Short() {
		t.Skip("training loop")
	}
	const s = "data"
	m := tinyModel(t, []string{s})
	opt := nn.NewAdam(0.01)
	m.SetTrain(true)
	for step := 0; step < 300; step++ {
		nn.ZeroGrads(m.Params())
		m.Loss(s, s).Backward()
		opt.Step(m.Params())
	}
	m.SetTrain(false)
	r := rand.New(rand.NewSource(3))
	got := m.Generate(s, 0, r)
	if got != s {
		t.Errorf("copy task: got %q, want %q", got, s)
	}
}

func TestLongInputTruncated(t *testing.T) {
	m := tinyModel(t, []string{"abcdefghij"})
	long := strings.Repeat("abcdefghij", 20)
	l := m.Loss(long, long) // must not panic on MaxLen overflow
	if l.Data[0] <= 0 {
		t.Errorf("loss = %v", l.Data[0])
	}
}

func TestSampleLogits(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	logits := []float64{0, 10, 0}
	if got := sampleLogits(logits, 0, r); got != 1 {
		t.Errorf("greedy pick = %d, want 1", got)
	}
	// At high temperature all classes appear.
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		seen[sampleLogits(logits, 10, r)] = true
	}
	if len(seen) != 3 {
		t.Errorf("high-temperature sampling visited %d classes, want 3", len(seen))
	}
}

func TestCausalMask(t *testing.T) {
	m := causalMask(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := m.At(i, j)
			if j > i && v != -1e9 {
				t.Errorf("mask[%d][%d] = %v, want -1e9", i, j, v)
			}
			if j <= i && v != 0 {
				t.Errorf("mask[%d][%d] = %v, want 0", i, j, v)
			}
		}
	}
}

func TestParamCount(t *testing.T) {
	m := tinyModel(t, []string{"ab"})
	n := 0
	for _, p := range m.Params() {
		if !p.RequiresGrad() {
			t.Fatal("non-trainable tensor in Params()")
		}
		n += len(p.Data)
	}
	if n == 0 {
		t.Fatal("no parameters")
	}
}

// TestGenerateConcurrentInTrainMode pins that Generate writes nothing to
// the model: with the model left in training mode, concurrent calls with
// their own r decode in inference mode, draw nothing from the model's own
// stream and match the same calls made one at a time.
func TestGenerateConcurrentInTrainMode(t *testing.T) {
	m := tinyModel(t, []string{"hello world", "gopher tracks"})
	m.SetTrain(true)
	draws := m.RandDraws()
	inputs := []string{"hello", "world", "gopher", "tracks", "hell", "go"}
	call := func(i int) string { return m.Generate(inputs[i], 1.0, rand.New(rand.NewSource(int64(i)))) }
	want := make([]string, len(inputs))
	for i := range inputs {
		want[i] = call(i)
	}
	got := make([]string, len(inputs))
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = call(i)
		}(i)
	}
	wg.Wait()
	for i := range inputs {
		if got[i] != want[i] {
			t.Errorf("input %q: concurrent %q, one at a time %q", inputs[i], got[i], want[i])
		}
	}
	if m.RandDraws() != draws {
		t.Error("Generate drew from the model's own dropout stream")
	}
	if !m.train {
		t.Error("Generate changed the model's mode")
	}
}
