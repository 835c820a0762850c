package blocking

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"serd/internal/dataset"
	"serd/internal/simfn"
)

// MinHash is locality-sensitive-hashing blocking over q-gram sets: each
// key value is sketched with Hashes minhash functions, the sketch is cut
// into Bands bands, and two entities become candidates when any band
// collides. Collision probability ≈ 1 − (1 − s^r)^b for Jaccard similarity
// s with r = Hashes/Bands rows per band, so the band/row split tunes the
// similarity threshold the blocker targets.
type MinHash struct {
	// Column is the key column index.
	Column int
	// Q is the gram size (default 3).
	Q int
	// Hashes is the sketch length (default 32).
	Hashes int
	// Bands is the number of LSH bands (default 8; must divide Hashes).
	Bands int
	// Seed perturbs the hash family.
	Seed uint64
}

func (m MinHash) defaults() MinHash {
	if m.Q == 0 {
		m.Q = 3
	}
	if m.Hashes == 0 {
		m.Hashes = 32
	}
	if m.Bands == 0 {
		m.Bands = 8
	}
	if m.Hashes > 0 && m.Bands > 0 && m.Hashes%m.Bands != 0 {
		// Round the sketch length up to a multiple of the band count
		// (negative values are left for Candidates to reject).
		m.Hashes = (m.Hashes/m.Bands + 1) * m.Bands
	}
	return m
}

// Describe implements Blocker.
func (m MinHash) Describe() string {
	d := m.defaults()
	return fmt.Sprintf("minhash(col=%d,q=%d,hashes=%d,bands=%d,seed=%d)", d.Column, d.Q, d.Hashes, d.Bands, d.Seed)
}

// Candidates implements Blocker.
func (m MinHash) Candidates(a, b *dataset.Relation) ([]dataset.Pair, error) {
	d := m.defaults()
	if err := checkColumn("minhash", d.Column, a, b); err != nil {
		return nil, err
	}
	if err := checkParams("minhash", param{"Q", d.Q}, param{"Hashes", d.Hashes}, param{"Bands", d.Bands}); err != nil {
		return nil, err
	}
	q := d.Q
	hashes := d.Hashes
	bands := d.Bands
	rows := hashes / bands

	sketch := func(s string) []uint64 {
		out := make([]uint64, hashes)
		for i := range out {
			out[i] = ^uint64(0)
		}
		for gram := range simfn.QGrams(strings.ToLower(s), q) {
			h := fnv.New64a()
			h.Write([]byte(gram))
			base := h.Sum64()
			for i := range out {
				// Distinct hash functions via multiply-shift mixing of the
				// base hash with the function index and seed.
				v := base ^ (uint64(i)+m.Seed+1)*0x9e3779b97f4a7c15
				v ^= v >> 29
				v *= 0xbf58476d1ce4e5b9
				v ^= v >> 32
				if v < out[i] {
					out[i] = v
				}
			}
		}
		return out
	}

	type bandKey struct {
		band int
		sig  string
	}
	index := make(map[bandKey][]int)
	for j, e := range b.Entities {
		sk := sketch(e.Values[d.Column])
		for band := 0; band < bands; band++ {
			index[bandKey{band, bandSig(sk, band, rows)}] = append(index[bandKey{band, bandSig(sk, band, rows)}], j)
		}
	}
	var out []dataset.Pair
	seen := make(map[int]bool)
	for i, e := range a.Entities {
		clear(seen)
		sk := sketch(e.Values[d.Column])
		var cands []int
		for band := 0; band < bands; band++ {
			for _, j := range index[bandKey{band, bandSig(sk, band, rows)}] {
				if !seen[j] {
					seen[j] = true
					cands = append(cands, j)
				}
			}
		}
		sort.Ints(cands)
		for _, j := range cands {
			out = append(out, dataset.Pair{A: i, B: j})
		}
	}
	return out, nil
}

// bandSig serializes one band of a sketch as a map key.
func bandSig(sk []uint64, band, rows int) string {
	var sb strings.Builder
	for _, v := range sk[band*rows : (band+1)*rows] {
		var buf [8]byte
		for k := 0; k < 8; k++ {
			buf[k] = byte(v >> (8 * k))
		}
		sb.Write(buf[:])
	}
	return sb.String()
}
