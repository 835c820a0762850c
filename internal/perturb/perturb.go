// Package perturb implements string perturbation operators: controlled
// edits that turn a value into a "dirty duplicate" of itself. They drive
// the match generation of the surrogate datasets, the EMBench baseline's
// rule-based entity modification, and the construction of similarity-bucket
// training pairs for the string synthesizer.
package perturb

import (
	"math/rand"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"serd/internal/simfn"
)

// Op transforms a string into a perturbed variant using r.
type Op func(s string, r *rand.Rand) string

// An edit is what one op does to a string s: s[I:J] gives way to Rep, so
// the op's result is s[:I] + Rep + s[J:]. The zero edit leaves s as it
// is. Rep may view s or the buffer the op was handed (see editOp).
type edit struct {
	I, J int
	Rep  string
}

// An editOp describes what one op does to s, making the op's draws from
// r. A replacement it has to build goes into *rep, which Rep then views
// until the next call that is handed the same buffer. c keeps what the
// ops read of s between calls (see scan); it may be nil.
type editOp func(s string, r *rand.Rand, rep *[]byte, c *scan) edit

// A scan keeps what the ops read of one string, its tokens and its letter
// count, each found the first time an op asks for it. A walk restarts
// from its origin often, so the ops read the origin once. A nil *scan
// keeps nothing: a token op then splits into a buffer on its own stack.
type scan struct {
	tokens  []Span // the tokens, once split
	spaced  bool   // they cover the string apart from single ' ' separators
	split   bool   // tokens and spaced are the string's
	letters int    // the letter count, -1 for invalid UTF-8
	counted bool   // letters is the string's
}

// reset makes c the scan of a new string, keeping its token buffer.
func (c *scan) reset() { *c = scan{tokens: c.tokens[:0]} }

// fields returns the tokens of s, split as strings.Fields splits, and
// whether they cover s apart from single ' ' separators. With a nil c the
// tokens are appended to buf.
func (c *scan) fields(s string, buf []Span) ([]Span, bool) {
	if c == nil {
		t := AppendFields(buf, s)
		return t, spaced(s, t)
	}
	if !c.split {
		c.tokens = AppendFields(c.tokens[:0], s)
		c.spaced = spaced(s, c.tokens)
		c.split = true
	}
	return c.tokens, c.spaced
}

// letterCount returns the number of letters in s, or -1 when s is not
// valid UTF-8.
func (c *scan) letterCount(s string) int {
	if c == nil {
		return countLetters(s)
	}
	if !c.counted {
		c.letters = countLetters(s)
		c.counted = true
	}
	return c.letters
}

// apply runs op on s the way the string Ops do: describe the edit, then
// make it. The buffer is the op's own, so a replacement covering all of
// s can be the result.
func (op editOp) apply(s string, r *rand.Rand) string {
	var rep []byte
	e := op(s, r, &rep, nil)
	switch {
	case e.I == e.J && e.Rep == "":
		return s
	case e.I == 0 && e.J == len(s):
		return e.Rep
	}
	return s[:e.I] + e.Rep + s[e.J:]
}

// rewrite is the edit replacing all of s with t.
func rewrite(s, t string) edit { return edit{0, len(s), t} }

// view returns the bytes of b as a string without copying them. The
// string is valid until b's bytes are next written.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Typo substitutes one letter for a random lowercase letter. Like
// DeleteChar and DuplicateChar, when s holds invalid UTF-8 and a letter it
// returns the edit with every invalid byte rewritten to U+FFFD.
func Typo(s string, r *rand.Rand) string { return editOp(typoEdit).apply(s, r) }

// DeleteChar removes one letter, rewriting invalid UTF-8 as Typo does.
func DeleteChar(s string, r *rand.Rand) string { return editOp(deleteCharEdit).apply(s, r) }

// DuplicateChar doubles one letter, rewriting invalid UTF-8 as Typo does.
func DuplicateChar(s string, r *rand.Rand) string { return editOp(duplicateCharEdit).apply(s, r) }

func typoEdit(s string, r *rand.Rand, _ *[]byte, c *scan) edit {
	i, w, ok := pickLetter(s, c, r)
	if !ok {
		return rewrite(s, typoRunes(s, r))
	}
	if w == 0 {
		return edit{}
	}
	k := r.Intn(26)
	return edit{i, i + w, lowercase[k : k+1]}
}

func deleteCharEdit(s string, r *rand.Rand, _ *[]byte, c *scan) edit {
	i, w, ok := pickLetter(s, c, r)
	if !ok {
		return rewrite(s, deleteCharRunes(s, r))
	}
	return edit{i, i + w, ""}
}

func duplicateCharEdit(s string, r *rand.Rand, _ *[]byte, c *scan) edit {
	i, w, ok := pickLetter(s, c, r)
	if !ok {
		return rewrite(s, duplicateCharRunes(s, r))
	}
	return edit{i + w, i + w, s[i : i+w]}
}

const lowercase = "abcdefghijklmnopqrstuvwxyz"

// pickLetter draws one letter of s with r.Intn(letter count) and returns
// its byte offset and width. With no letter it makes no draw and returns
// width 0. When s is not valid UTF-8 it makes no draw and returns false:
// the letter ops then take their []rune forms.
func pickLetter(s string, c *scan, r *rand.Rand) (i, w int, ok bool) {
	n := c.letterCount(s)
	switch {
	case n < 0:
		return 0, 0, false
	case n == 0:
		return 0, 0, true
	}
	k := r.Intn(n)
	for i := 0; i < len(s); {
		c, w := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsLetter(c) {
			if k == 0 {
				return i, w, true
			}
			k--
		}
		i += w
	}
	panic("perturb: letter count changed between passes")
}

// countLetters returns the number of letters in s, or -1 when s is not
// valid UTF-8.
func countLetters(s string) int {
	n := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'a' <= c|0x20 && c|0x20 <= 'z' {
				n++
			}
			i++
			continue
		}
		c, w := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && w == 1 {
			return -1
		}
		if unicode.IsLetter(c) {
			n++
		}
		i += w
	}
	return n
}

// typoRunes, deleteCharRunes and duplicateCharRunes are the []rune forms
// of the letter ops. They serve invalid UTF-8, whose rewrite to U+FFFD by
// string([]rune(s)) is part of the output, and they are the oracles the
// slicing forms are tested against: same output, same draws.
func typoRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	runes[i] = rune('a' + r.Intn(26))
	return string(runes)
}

func deleteCharRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i]) + string(runes[i+1:])
}

func duplicateCharRunes(s string, r *rand.Rand) string {
	runes := []rune(s)
	idxs := letterIndexes(runes)
	if len(idxs) == 0 {
		return s
	}
	i := idxs[r.Intn(len(idxs))]
	return string(runes[:i+1]) + string(runes[i:])
}

// DropToken removes one whitespace-separated token (never the only one).
// Tokens split as strings.Fields splits them and rejoin with single spaces.
func DropToken(s string, r *rand.Rand) string { return editOp(dropTokenEdit).apply(s, r) }

// SwapTokens exchanges two adjacent tokens, splitting and rejoining as
// DropToken does.
func SwapTokens(s string, r *rand.Rand) string { return editOp(swapTokensEdit).apply(s, r) }

// dropTokenEdit and swapTokensEdit touch only the tokens they drop or
// move when s is already joined by single spaces; otherwise the rejoin
// rewrites all of s.
func dropTokenEdit(s string, r *rand.Rand, rep *[]byte, c *scan) edit {
	var buf [16]Span
	t, sp := c.fields(s, buf[:0])
	if len(t) < 2 {
		return edit{}
	}
	i := r.Intn(len(t))
	switch {
	case !sp:
		b := appendJoined((*rep)[:0], s, t[:i])
		if i > 0 && i+1 < len(t) {
			b = append(b, ' ')
		}
		*rep = appendJoined(b, s, t[i+1:])
		return rewrite(s, view(*rep))
	case i+1 < len(t):
		return edit{t[i].Start, t[i+1].Start, ""} // the token and the space after it
	}
	return edit{t[i-1].End, t[i].End, ""} // the last token and the space before it
}

func swapTokensEdit(s string, r *rand.Rand, rep *[]byte, c *scan) edit {
	var buf [16]Span
	t, sp := c.fields(s, buf[:0])
	if len(t) < 2 {
		return edit{}
	}
	i := r.Intn(len(t) - 1)
	a, b := t[i], t[i+1]
	if !sp {
		out := appendJoined((*rep)[:0], s, t[:i])
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(append(append(out, s[b.Start:b.End]...), ' '), s[a.Start:a.End]...)
		if i+2 < len(t) {
			out = append(out, ' ')
		}
		*rep = appendJoined(out, s, t[i+2:])
		return rewrite(s, view(*rep))
	}
	*rep = append(append(append((*rep)[:0], s[b.Start:b.End]...), ' '), s[a.Start:a.End]...)
	return edit{a.Start, b.End, view(*rep)}
}

// A Span is the byte range [Start, End) of one token of a string.
type Span struct{ Start, End int }

// AppendFields appends the tokens of s to dst, split as strings.Fields
// splits: a rune separates when unicode.IsSpace holds, and an invalid
// UTF-8 byte never does. ASCII bytes are tested inline; spaceAt decodes
// the rest.
func AppendFields(dst []Span, s string) []Span {
	i := 0
	for {
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if !asciiSpace[c] {
					break
				}
				i++
				continue
			}
			space, w := spaceAt(s, i)
			if !space {
				break
			}
			i += w
		}
		if i == len(s) {
			return dst
		}
		start := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				i++
				continue
			}
			space, w := spaceAt(s, i)
			if space {
				break
			}
			i += w
		}
		dst = append(dst, Span{start, i})
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace holds for.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt reports whether the rune at byte offset i of s, where a
// non-ASCII byte starts, is white space, and its width in bytes (1 for an
// invalid byte).
func spaceAt(s string, i int) (bool, int) {
	c, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(c), w
}

// appendJoined appends the tokens t of s joined by single spaces, the
// strings.Join(·, " ") of their substrings.
func appendJoined(dst []byte, s string, t []Span) []byte {
	for k, f := range t {
		if k > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, s[f.Start:f.End]...)
	}
	return dst
}

// spaced reports whether the tokens t cover s apart from single ' '
// separators, so that rejoining them reproduces s.
func spaced(s string, t []Span) bool {
	end := 0 // the end of the previous token
	for k, f := range t {
		if k == 0 && f.Start != 0 || k > 0 && (f.Start != end+1 || s[end] != ' ') {
			return false
		}
		end = f.End
	}
	return end == len(s)
}

// LowerCase folds the string to lower case, as strings.ToLower does.
func LowerCase(s string, r *rand.Rand) string { return editOp(lowerCaseEdit).apply(s, r) }

func lowerCaseEdit(s string, _ *rand.Rand, rep *[]byte, _ *scan) edit {
	for i := 0; i < len(s); {
		c, w := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, w = utf8.DecodeRuneInString(s[i:])
		}
		if c == utf8.RuneError && w == 1 || unicode.ToLower(c) != c {
			// s[:i] lowers to itself; so does the tail that lowering
			// leaves byte for byte, which the edit leaves out whole runes
			// at a time.
			b := AppendLower((*rep)[:0], s[i:])
			j := len(s)
			for j > i && len(b) > 0 && b[len(b)-1] == s[j-1] {
				j, b = j-1, b[:len(b)-1]
			}
			for j < len(s) && !utf8.RuneStart(s[j]) {
				j, b = j+1, b[:len(b)+1]
			}
			*rep = b
			return edit{i, j, view(b)}
		}
		i += w
	}
	return edit{}
}

// AppendLower appends strings.ToLower(s) to dst: every rune through
// unicode.ToLower, an invalid UTF-8 byte as U+FFFD.
func AppendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		c, w := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(c))
		i += w
	}
	return dst
}

// TitleCase upper-cases the first letter of every token, splitting and
// rejoining as DropToken does. A token that is not valid UTF-8 comes out
// with every invalid byte rewritten to U+FFFD, as Typo's does. Input that
// the rebuild would reproduce comes back as it is, without a copy.
func TitleCase(s string, r *rand.Rand) string { return editOp(titleCaseEdit).apply(s, r) }

func titleCaseEdit(s string, _ *rand.Rand, rep *[]byte, c *scan) edit {
	var buf [16]Span
	t, sp := c.fields(s, buf[:0])
	b := (*rep)[:0]
	if sp && c.letterCount(s) >= 0 {
		// The rebuild only upper-cases the first runes of tokens: edit
		// from the first that changes to the last.
		lo, hi := -1, 0
		for _, f := range t {
			r, size := utf8.DecodeRuneInString(s[f.Start:])
			if u := unicode.ToUpper(r); u != r {
				if lo < 0 {
					lo = f.Start
				} else {
					b = append(b, s[hi:f.Start]...)
				}
				b = utf8.AppendRune(b, u)
				hi = f.Start + size
			}
		}
		if lo < 0 {
			return edit{}
		}
		*rep = b
		return edit{lo, hi, view(b)}
	}
	for k, f := range t {
		if k > 0 {
			b = append(b, ' ')
		}
		w := s[f.Start:f.End]
		c, size := utf8.DecodeRuneInString(w)
		b = utf8.AppendRune(b, unicode.ToUpper(c))
		if utf8.ValidString(w) {
			b = append(b, w[size:]...)
			continue
		}
		for _, c := range w[size:] {
			b = utf8.AppendRune(b, c)
		}
	}
	*rep = b
	return rewrite(s, view(b))
}

// AbbreviateFirstNames shortens every token except the last of each
// comma-separated person name to its initial: "Donald Kossmann, Alfons
// Kemper" -> "D. Kossmann, A. Kemper" (EMBench's abbreviation rule).
func AbbreviateFirstNames(s string, _ *rand.Rand) string {
	names := strings.Split(s, ",")
	for i, n := range names {
		t := strings.Fields(n)
		if len(t) < 2 {
			names[i] = strings.TrimSpace(n)
			continue
		}
		for j := 0; j < len(t)-1; j++ {
			runes := []rune(t[j])
			if len(runes) > 1 {
				t[j] = string(runes[0]) + "."
			}
		}
		names[i] = strings.Join(t, " ")
	}
	return strings.Join(names, ", ")
}

// ReorderNames shuffles comma-separated person names (a common source of
// low author similarity between bibliographic sources).
func ReorderNames(s string, r *rand.Rand) string {
	names := strings.Split(s, ", ")
	if len(names) < 2 {
		return s
	}
	r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return strings.Join(names, ", ")
}

// Light returns the mild operator set used for matching-pair generation:
// token reorder, case changes, single-character noise.
func Light() []Op {
	return []Op{Typo, DeleteChar, DuplicateChar, SwapTokens, LowerCase, TitleCase}
}

// Heavy returns the aggressive operator set (adds token drops and name
// rewrites) used to push similarity down toward mid buckets.
func Heavy() []Op {
	return append(Light(), DropToken, AbbreviateFirstNames, ReorderNames)
}

// Apply applies n operators drawn from ops to s.
func Apply(s string, ops []Op, n int, r *rand.Rand) string {
	for i := 0; i < n; i++ {
		s = ops[r.Intn(len(ops))](s, r)
	}
	return s
}

// A Walker runs edit walks, keeping its byte buffers from one walk to the
// next. The zero value is ready to use. A Walker serves one goroutine at
// a time.
type Walker struct {
	cur  []byte // the walk's current string
	best []byte // the closest candidate so far
	rep  []byte // the replacement an op builds
	// The scans of s and of the current string when it is not s.
	orig, edited scan
}

// walkEdits are the walk's ops. They are token- and character-level but
// leave out name abbreviation: "T. S. O." artifacts on non-name text read
// as obviously fake, and callers that want abbreviation apply it
// directly. None returns a replacement that views the string it edits.
var walkEdits = [...]editOp{typoEdit, deleteCharEdit, dropTokenEdit, swapTokensEdit, lowerCaseEdit, titleCaseEdit}

// Walk edits s until its similarity to the reference value sc was bound
// to is within tol of target (or maxSteps edits have been applied),
// returning the closest variant found and its similarity. The reference
// is the caller's: s itself when a corpus string is walked into a
// training pair, the value being synthesized when a blend is polished
// toward it. This is the workhorse behind similarity-bucketed
// training-pair construction and the rule synthesizer's edit candidates.
//
// Each step draws an op as Apply(cur, ops, 1, r) would, with ops Typo,
// DeleteChar, DropToken, SwapTokens, LowerCase and TitleCase, and makes
// the op's own draws, but the op only describes its edit: sc scores the
// edit against the current string, which the walk keeps in a buffer, and
// a candidate's bytes are written only when it becomes the closest so
// far (into a second buffer) or the current string (in place). A string
// is built once, for the result, and not at all when s is the closest.
// What the ops read of s, its tokens and letter count, is read once per
// walk, so a step from s pays only for its edit.
// The walk keeps going from a candidate still above the target (edits
// lower similarity in expectation) and restarts from s when one is not.
func (w *Walker) Walk(s string, target, tol float64, sc simfn.Scorer, maxSteps int, r *rand.Rand) (string, float64) {
	if w.cur == nil {
		// One block for the byte buffers, which edits rarely grow past it.
		n := 2*len(s) + 32
		block := make([]byte, 3*n)
		w.cur, w.best, w.rep = block[:0:n], block[n:n:2*n], block[2*n:2*n]
	}
	if n := len(s)/2 + 1; cap(w.orig.tokens) < n {
		// Room for the tokens of s, which no walk op adds to.
		spans := make([]Span, 2*n)
		w.orig.tokens, w.edited.tokens = spans[:0:n], spans[n:n]
	}
	w.orig.reset()
	bestSim := sc.Start(s)
	built := false       // w.best holds the closest candidate, not s
	cur, c := s, &w.orig // the current string and its scan: s, or w.cur's bytes
	for i := 0; i < maxSteps; i++ {
		if diff := bestSim - target; diff <= tol && diff >= -tol {
			break
		}
		e := walkEdits[r.Intn(len(walkEdits))](cur, r, &w.rep, c)
		cs := sc.Score(cur, e.I, e.J, e.Rep)
		if abs(cs-target) < abs(bestSim-target) {
			w.best = append(append(append(w.best[:0], cur[:e.I]...), e.Rep...), cur[e.J:]...)
			bestSim, built = cs, true
		}
		if cs <= target {
			cur, c = s, &w.orig
			sc.Restart()
			continue
		}
		sc.Keep()
		if e.I != e.J || e.Rep != "" { // the edit changes cur
			if c == &w.orig {
				w.cur = append(w.cur[:0], s...)
			}
			w.cur = splice(w.cur, e)
			cur, c = view(w.cur), &w.edited
			c.reset()
		}
	}
	if !built {
		return s, bestSim
	}
	return string(w.best), bestSim
}

// splice makes edit e on buf in place. e.Rep must not view buf.
func splice(buf []byte, e edit) []byte {
	n := len(buf)
	m := n - (e.J - e.I) + len(e.Rep)
	if m > n {
		buf = append(buf, make([]byte, m-n)...)
	}
	copy(buf[e.I+len(e.Rep):], buf[e.J:n])
	copy(buf[e.I:], e.Rep)
	return buf[:m]
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func letterIndexes(runes []rune) []int {
	var idxs []int
	for i, c := range runes {
		if unicode.IsLetter(c) {
			idxs = append(idxs, i)
		}
	}
	return idxs
}
