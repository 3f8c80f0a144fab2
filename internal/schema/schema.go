// Package schema describes the database vocabulary: the named relations
// a history ranges over, with their arities and optional attribute names.
package schema

import (
	"fmt"
	"sort"
)

// IsIdent reports whether s is an identifier — a relation, attribute or
// constraint name: an ASCII letter or underscore, then ASCII letters,
// digits and underscores.
func IsIdent(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '_' && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return len(s) > 0
}

// RelDef describes one relation.
type RelDef struct {
	Name  string
	Arity int
	// Attrs optionally names the columns; when present its length
	// equals Arity.
	Attrs []string
}

// Schema is an immutable set of relation definitions.
type Schema struct {
	rels map[string]RelDef
}

// Builder accumulates relation definitions and validates them.
type Builder struct {
	rels map[string]RelDef
	err  error
}

// NewBuilder returns an empty schema builder.
func NewBuilder() *Builder {
	return &Builder{rels: make(map[string]RelDef)}
}

// Relation adds a relation with anonymous columns.
func (b *Builder) Relation(name string, arity int) *Builder {
	return b.add(RelDef{Name: name, Arity: arity})
}

// RelationAttrs adds a relation whose arity is the number of attribute
// names given.
func (b *Builder) RelationAttrs(name string, attrs ...string) *Builder {
	return b.add(RelDef{Name: name, Arity: len(attrs), Attrs: append([]string(nil), attrs...)})
}

func (b *Builder) add(def RelDef) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case !IsIdent(def.Name):
		b.err = fmt.Errorf("schema: invalid relation name %q", def.Name)
	case def.Arity < 0:
		b.err = fmt.Errorf("schema: relation %s has negative arity", def.Name)
	default:
		if _, dup := b.rels[def.Name]; dup {
			b.err = fmt.Errorf("schema: duplicate relation %s", def.Name)
			return b
		}
		for _, a := range def.Attrs {
			if !IsIdent(a) {
				b.err = fmt.Errorf("schema: relation %s has invalid attribute name %q", def.Name, a)
				return b
			}
		}
		seen := make(map[string]bool, len(def.Attrs))
		for _, a := range def.Attrs {
			if seen[a] {
				b.err = fmt.Errorf("schema: relation %s repeats attribute %q", def.Name, a)
				return b
			}
			seen[a] = true
		}
		b.rels[def.Name] = def
	}
	return b
}

// Build returns the schema or the first accumulated error.
func (b *Builder) Build() (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	rels := make(map[string]RelDef, len(b.rels))
	for k, v := range b.rels {
		rels[k] = v
	}
	return &Schema{rels: rels}, nil
}

// MustBuild builds or panics; for tests and examples with literal schemas.
func (b *Builder) MustBuild() *Schema {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema's own copy of the relation name spelled by b,
// so a parser can name a relation without copying its input.
func (s *Schema) Name(b []byte) (string, bool) {
	d, ok := s.rels[string(b)]
	return d.Name, ok
}

// Lookup returns the definition of name.
func (s *Schema) Lookup(name string) (RelDef, bool) {
	d, ok := s.rels[name]
	return d, ok
}

// Arity returns the arity of name or an error if the relation is unknown.
func (s *Schema) Arity(name string) (int, error) {
	d, ok := s.rels[name]
	if !ok {
		return 0, fmt.Errorf("schema: unknown relation %q", name) //rtic:allocok cold path: the relation is not declared
	}
	return d.Arity, nil
}

// Names returns all relation names, sorted.
func (s *Schema) Names() []string {
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of relations.
func (s *Schema) Len() int { return len(s.rels) }

// String renders the schema as "name/arity" pairs, sorted.
func (s *Schema) String() string {
	out := ""
	for i, n := range s.Names() {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s/%d", n, s.rels[n].Arity)
	}
	return out
}
