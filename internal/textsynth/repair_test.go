package textsynth

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"serd/internal/simfn"
)

// repairTokensOracle is repairTokens as a plain scan of the sorted
// vocabulary with the full edit distance and no lower bound: the oracle
// FuzzRepairTokens holds the bounded scan to.
func repairTokensOracle(rs *RuleSynthesizer, s string) string {
	if rs.DisableRepair || len(rs.vocab) == 0 {
		return s
	}
	toks := strings.Fields(s)
	changed := false
	for i, tok := range toks {
		lower := strings.ToLower(tok)
		n := utf8.RuneCountInString(lower)
		if rs.vocab[lower] || n < 3 {
			continue
		}
		best, bestD := "", 3
		for _, v := range rs.vocabList {
			if gap := utf8.RuneCountInString(v.tok) - n; gap > 2 || gap < -2 {
				continue
			}
			if d := simfn.EditDistance(lower, v.tok); d < bestD {
				best, bestD = v.tok, d
				if d == 1 {
					break
				}
			}
		}
		if best != "" {
			toks[i] = matchCase(tok, best)
			changed = true
		}
	}
	if !changed {
		return s
	}
	return strings.Join(toks, " ")
}

// FuzzRepairTokens checks the bound-filtered repair against the oracle
// scan over a vocabulary built from corpus and an input s, both of which
// may hold invalid UTF-8 and multi-byte runes.
func FuzzRepairTokens(f *testing.F) {
	f.Add("crème brûlée", "Brle crme")
	f.Add("forest family restaurant\ngolden dragon kitchen", "Forrest Famly restauran golden zz")
	f.Add("東京 東都 タワー", "東京タワ 東郷 タワ")
	f.Add("ab\xffcd abcd ab�cd", "AB\xffCD ab\xfecd abxcd")
	f.Add("", "anything at all")
	f.Add("aaaa bbbb abab baba aabb", "abba bbaa aaab")
	r := rand.New(rand.NewSource(5))
	alphabet := []string{"a", "b", "c", "d", "e", "A", "B", "é", "É", "ü", "日", "本", "\xff", "�", " ", " ", "\n"}
	word := func(n int) string {
		var b strings.Builder
		for i := r.Intn(n); i > 0; i-- {
			b.WriteString(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 64; i++ {
		f.Add(word(120), word(30))
	}
	f.Fuzz(func(t *testing.T, corpus, s string) {
		rs, err := NewRuleSynthesizer(simfn.QGramJaccard{Q: 3, Fold: true}, []string{corpus})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rs.repairTokens(s), repairTokensOracle(rs, s); got != want {
			t.Fatalf("repairTokens(%q) = %q, oracle %q", s, got, want)
		}
	})
}
