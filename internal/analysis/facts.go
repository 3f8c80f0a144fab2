package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// FuncFact is the serialized cross-package summary of one function:
// what the analyzers need to know about a callee without re-reading
// its source. Facts flow bottom-up — a package's facts embed the
// transitive effects of its module-local callees.
type FuncFact struct {
	// Alloc is "" when the function is allocation-free under the
	// noalloc rules, else one piece of evidence ("make([]T, n) at
	// file:line", possibly via a call chain).
	Alloc string
	// Acquires lists lock identities (pkgpath.Type.field) the function
	// may acquire, directly or transitively.
	Acquires []string
	// Net is "" unless the function may perform network I/O (a
	// statically-visible call into package net), else evidence.
	Net string
	// Noalloc records the //rtic:noalloc annotation, so callers can
	// rely on the callee being independently checked.
	Noalloc bool
}

// MetricFact is one metric registration site.
type MetricFact struct {
	Name string // the constant metric name ("" = non-constant, reported at the site)
	Pos  string // file:line of the registration
}

// PackageFacts is everything one package exports to its dependents'
// analyses.
type PackageFacts struct {
	Path    string
	Funcs   map[string]FuncFact // keyed by types.Func.FullName
	Metrics []MetricFact
}

func (f *FuncFact) acquiresLock(id string) bool {
	for _, a := range f.Acquires {
		if a == id {
			return true
		}
	}
	return false
}

// FactSet maps package path -> facts for every module-local package a
// unit of analysis can see. It is the gob payload rticvet writes per
// package: each package's facts file embeds its transitive
// module-local dependencies, so a dependent only needs its direct
// deps' files.
type FactSet map[string]*PackageFacts

// EncodeFacts serializes a fact set.
func EncodeFacts(fs FactSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(fs); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts deserializes a fact set; empty input yields an empty set.
func DecodeFacts(b []byte) (FactSet, error) {
	fs := FactSet{}
	if len(b) == 0 {
		return fs, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&fs); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts: %w", err)
	}
	return fs, nil
}

// Merge folds other into fs (other wins on conflicts).
func (fs FactSet) Merge(other FactSet) {
	for path, pf := range other {
		fs[path] = pf
	}
}

// Facts extracts the serializable facts from a package's summaries.
func (s *PackageSummaries) Facts() *PackageFacts {
	pf := &PackageFacts{Path: s.Path, Funcs: make(map[string]FuncFact, len(s.Funcs))}
	for id, sum := range s.Funcs {
		pf.Funcs[id] = sum.fact
	}
	pf.Metrics = append(pf.Metrics, s.Metrics...)
	sort.Slice(pf.Metrics, func(i, j int) bool { return pf.Metrics[i].Pos < pf.Metrics[j].Pos })
	return pf
}
