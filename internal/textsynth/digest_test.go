package textsynth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"serd/internal/datagen"
	"serd/internal/dataset"
)

// ruleSynthesizeDigest pins RuleSynthesizer.Synthesize on datagen values:
// the SHA-256 of every call's output, score bits and the generator's next
// draw. It changes only when the synthesizer's output or draws change.
const ruleSynthesizeDigest = "df8400d21d9be80dcf260c69744ce782a0e621f5d99be7c2c71a04e7948e612f"

// TestRuleSynthesizeDigest synthesizes the first 30 background values of
// every textual column of datagen Restaurant, Products and Scholar (seed 1,
// 40×40) at targets 0, 0.1, …, 1, and hashes each call's output string,
// the bits of its score and the next r.Int63(). The edit walk's kernels
// may get faster; this digest says they still give the same bytes and
// consume the same draws.
func TestRuleSynthesizeDigest(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, g := range []func(datagen.Config) (*datagen.Generated, error){datagen.Restaurant, datagen.Products, datagen.Scholar} {
		gen, err := g(datagen.Config{Seed: 1, SizeA: 40, SizeB: 40, Matches: 10})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		for _, col := range gen.ER.Schema().Cols {
			if col.Kind != dataset.Textual {
				continue
			}
			rs, err := NewRuleSynthesizer(col.Sim, gen.Background[col.Name])
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range gen.Background[col.Name][:30] {
				for ti := 0; ti <= 10; ti++ {
					out, sim := rs.Synthesize(v, float64(ti)/10, r)
					h.Write([]byte(out))
					h.Write([]byte{0})
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(sim))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], uint64(r.Int63()))
					h.Write(buf[:])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ruleSynthesizeDigest {
		t.Fatalf("Synthesize digest %s, want %s", got, ruleSynthesizeDigest)
	}
}
