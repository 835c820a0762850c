package perturb

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"serd/internal/simfn"
)

// FuzzWalkScore drives simfn.BindScorer the way Walk does, with every op
// the package describes as an edit, and checks each incremental score
// against a full rescore of the edited string by QGramJaccard.Sim, whose
// sorted gram sets share no code with the matcher, bit for bit: after
// Start, for every scored edit (kept or not), and after every Restart.
// q runs 1–3 with folding on and off, over origins and references with
// invalid UTF-8, white-space runs, tabs and values shorter than q. The
// scorer counts each edit of a short origin afresh and scores the edits
// of a longer one from the grams they change, so every origin is also
// walked with a 64-byte tail. Long runs of kept edits grow the scorer's
// table in the middle of a walk.
func FuzzWalkScore(f *testing.F) {
	for _, s := range []struct{ ref, origin string }{
		{"Arnie Morton's of Chicago", "Arnie Morton's of Chicago"},
		{"Arnie Morton's of Chicago", "arnie mortons  chicago grill"},
		{"sony cyber-shot camera", "Sony Cyber-Shot\tCamera"},
		{"crème brûlée", "CRÈME Brûlée ǅemal"},
		{"東京 タワー", "東京  タワー x"},
		{"ab\xff cd", "AB\xff Cd \xe2\x82"},
		{"ab�", "ab\xff"},
		{"İstanbul ıi ſ", "Kelvin ſoft ſerve"},
		{"a", "ab"},
		{"", "x"},
		{"xy", ""},
		{"  lead trail  ", " lead\t\ttrail "},
		{"dsc-w830", "DSC-W830"},
		{strings.Repeat("abcdefgh ", 12), strings.Repeat("abcdefgh ", 12)},
	} {
		for q := uint8(0); q < 3; q++ {
			f.Add(s.ref, s.origin, int64(q), q, false, false)
			f.Add(s.ref, s.origin, int64(q)+7, q, true, true)
		}
	}
	ops := []struct {
		name string
		op   editOp
	}{
		{"Typo", typoEdit}, {"DeleteChar", deleteCharEdit}, {"DuplicateChar", duplicateCharEdit},
		{"DropToken", dropTokenEdit}, {"SwapTokens", swapTokensEdit},
		{"LowerCase", lowerCaseEdit}, {"TitleCase", titleCaseEdit},
	}
	f.Fuzz(func(t *testing.T, ref, origin string, seed int64, q uint8, fold, long bool) {
		if long {
			origin += strings.Repeat(" Tail of Eight", 4) + "\t\ttail  "
		}
		fn := simfn.QGramJaccard{Q: 1 + int(q%3), Fold: fold}
		sc := simfn.BindScorer(fn, ref)
		check := func(what, s string, got float64) {
			if want := fn.Sim(ref, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s fold=%t ref %q: %s gives %v for %q, full rescore %v", fn.Name(), fold, ref, what, got, s, want)
			}
		}
		check("Start", origin, sc.Start(origin))
		r := rand.New(rand.NewSource(seed))
		cur := origin
		var buf []byte
		for step := 0; step < 80; step++ {
			k := r.Intn(len(ops) + 1)
			if k == len(ops) {
				sc.Restart()
				cur = origin
				check("Restart", cur, sc.Score(cur, 0, 0, ""))
				continue
			}
			e := ops[k].op(cur, r, &buf, nil)
			// Rep views buf, and a concatenation of it alone would too.
			edited := cur[:e.I] + strings.Clone(e.Rep) + cur[e.J:]
			check(ops[k].name+" of "+cur, edited, sc.Score(cur, e.I, e.J, e.Rep))
			if r.Intn(3) > 0 {
				sc.Keep()
				cur = edited
				check("Keep", cur, sc.Score(cur, 0, 0, ""))
			}
		}
	})
}
