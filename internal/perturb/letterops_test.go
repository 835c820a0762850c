package perturb

import (
	"math/rand"
	"testing"
)

// FuzzLetterOpsMatchRunes checks the slicing forms of Typo, DeleteChar and
// DuplicateChar against their []rune oracles: from equal seeds both give
// the same output and leave the generator at the same next draw.
func FuzzLetterOpsMatchRunes(f *testing.F) {
	for _, s := range []string{
		"", "hello world", "Hotel Bel-Air", "1234 !!", "   ",
		"café Zürich", "日本語 テキスト", "née naïve ÀÉ", "x\u0301y", // combining mark is no letter
		"ab\xffcd", "\xff\xfe", "caf\xc3", "\xe2\x82 1", "a\uFFFDb",
	} {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(s, seed)
		}
	}
	ops := []struct {
		name       string
		fast, slow Op
	}{
		{"Typo", Typo, typoRunes},
		{"DeleteChar", DeleteChar, deleteCharRunes},
		{"DuplicateChar", DuplicateChar, duplicateCharRunes},
	}
	f.Fuzz(func(t *testing.T, s string, seed int64) {
		for _, op := range ops {
			rf, rs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := op.fast(s, rf), op.slow(s, rs)
			if got != want {
				t.Fatalf("%s(%q) seed %d = %q, []rune oracle %q", op.name, s, seed, got, want)
			}
			if a, b := rf.Int63(), rs.Int63(); a != b {
				t.Fatalf("%s(%q) seed %d: next draw %d, oracle's %d", op.name, s, seed, a, b)
			}
		}
	})
}
