// Package dataset defines the ER data model of the paper (§II-A): relations
// of entities under an aligned schema, matching/non-matching pair labels,
// similarity-vector computation, pair enumeration and train/test splitting,
// plus CSV round-tripping.
package dataset

import (
	"fmt"

	"serd/internal/simfn"
)

// Kind classifies a column for synthesis purposes (paper §IV-B1).
type Kind int

// Column kinds. Textual columns are synthesized with the string
// synthesizer; categorical columns are restricted to observed values;
// numeric and date columns are inverted analytically.
const (
	Textual Kind = iota
	Categorical
	Numeric
	Date
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Textual:
		return "textual"
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is one attribute of the aligned schema, with the similarity
// function used for it (paper §II-B: {C_1..C_l} with {f_1..f_l}).
type Column struct {
	Name string
	Kind Kind
	Sim  simfn.Func
}

// Schema is the aligned schema shared by the A- and B-relations.
type Schema struct {
	Cols []Column
}

// NewSchema validates and returns a schema.
func NewSchema(cols []Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: schema needs at least one column")
	}
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("dataset: column %d has empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("dataset: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Sim == nil {
			return nil, fmt.Errorf("dataset: column %q has no similarity function", c.Name)
		}
	}
	return &Schema{Cols: cols}, nil
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColumnIndex returns the index of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// FirstTextual returns the index of the first textual column, or -1. It
// is the default blocking key.
func (s *Schema) FirstTextual() int {
	for i, c := range s.Cols {
		if c.Kind == Textual {
			return i
		}
	}
	return -1
}

// SimVector computes the similarity vector x_(a,b) of an entity pair
// (paper §II-B): x[i] = f_i(a[C_i], b[C_i]).
func (s *Schema) SimVector(a, b *Entity) []float64 {
	x := make([]float64, len(s.Cols))
	for i, c := range s.Cols {
		x[i] = c.Sim.Sim(a.Values[i], b.Values[i])
	}
	return x
}

// Entity is one record: an identifier plus one value per schema column.
type Entity struct {
	ID     string
	Values []string
}

// Clone returns a deep copy of the entity.
func (e *Entity) Clone() *Entity {
	v := make([]string, len(e.Values))
	copy(v, e.Values)
	return &Entity{ID: e.ID, Values: v}
}

// Relation is a named table of entities under a schema.
type Relation struct {
	Name     string
	Schema   *Schema
	Entities []*Entity
}

// NewRelation returns an empty relation.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Len returns the number of entities.
func (r *Relation) Len() int { return len(r.Entities) }

// Append adds an entity after validating its arity.
func (r *Relation) Append(e *Entity) error {
	if len(e.Values) != r.Schema.Len() {
		return fmt.Errorf("dataset: entity %q has %d values, schema has %d columns", e.ID, len(e.Values), r.Schema.Len())
	}
	r.Entities = append(r.Entities, e)
	return nil
}

// ColumnValues returns the distinct values of column idx, in first-seen
// order. Used for categorical synthesis (§IV-B1) and cold start (§IV-B2).
func (r *Relation) ColumnValues(idx int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range r.Entities {
		v := e.Values[idx]
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
