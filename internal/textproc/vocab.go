package textproc

import (
	"fmt"
	"math"
	"sync"
)

// Vocabulary interns terms to dense TermIDs and tracks document frequencies
// for IDF weighting. It is safe for concurrent use: the ingest path interns
// new terms while scoring paths look up existing ones.
type Vocabulary struct {
	mu    sync.RWMutex
	ids   map[string]TermID
	terms []string
	df    []int // document frequency per TermID
	docs  int   // total documents observed
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]TermID)}
}

// Intern returns the TermID for term, assigning a new ID on first sight.
func (v *Vocabulary) Intern(term string) TermID {
	v.mu.RLock()
	id, ok := v.ids[term]
	v.mu.RUnlock()
	if ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if id, ok = v.ids[term]; ok {
		return id
	}
	id = TermID(len(v.terms))
	v.ids[term] = id
	v.terms = append(v.terms, term)
	v.df = append(v.df, 0)
	return id
}

// Term returns the string for a TermID; empty for out-of-range IDs.
func (v *Vocabulary) Term(id TermID) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if int(id) >= len(v.terms) {
		return ""
	}
	return v.terms[id]
}

// Size returns the number of interned terms.
func (v *Vocabulary) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.terms)
}

// Docs returns the number of documents observed via ObserveDoc.
func (v *Vocabulary) Docs() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.docs
}

// ObserveDoc records one document's distinct terms for DF statistics.
func (v *Vocabulary) ObserveDoc(ids []TermID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.docs++
	seen := make(map[TermID]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		if int(id) < len(v.df) {
			v.df[id]++
		}
	}
}

// Snapshot returns a copy of the vocabulary state for persistence: the
// interned terms in ID order, their document frequencies, and the total
// document count.
func (v *Vocabulary) Snapshot() (terms []string, df []int, docs int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	terms = append([]string(nil), v.terms...)
	df = append([]int(nil), v.df...)
	return terms, df, v.docs
}

// Restore replaces the vocabulary state with a snapshot. It fails when the
// vocabulary is not empty, when terms and df disagree in length, or when a
// term is duplicated.
func (v *Vocabulary) Restore(terms []string, df []int, docs int) error {
	if len(terms) != len(df) {
		return fmt.Errorf("textproc: restore: %d terms but %d df entries", len(terms), len(df))
	}
	if docs < 0 {
		return fmt.Errorf("textproc: restore: negative doc count %d", docs)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.terms) != 0 {
		return fmt.Errorf("textproc: restore into non-empty vocabulary (%d terms)", len(v.terms))
	}
	for i, term := range terms {
		if _, dup := v.ids[term]; dup {
			return fmt.Errorf("textproc: restore: duplicate term %q", term)
		}
		v.ids[term] = TermID(i)
	}
	v.terms = append([]string(nil), terms...)
	v.df = append([]int(nil), df...)
	v.docs = docs
	return nil
}

// IDF returns the smoothed inverse document frequency of a term:
// ln(1 + N/(1 + df)). Unknown terms get the maximum IDF for the current N.
func (v *Vocabulary) IDF(id TermID) float64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	df := 0
	if int(id) < len(v.df) {
		df = v.df[id]
	}
	return math.Log(1 + float64(v.docs)/float64(1+df))
}

// Pipeline bundles tokenizer + vocabulary into the standard text → vector
// transformation used for both messages and ads.
type Pipeline struct {
	Vocab *Vocabulary
	// UseIDF selects TF-IDF weighting; plain normalized TF otherwise.
	UseIDF bool
	// StemTokens applies Porter stemming before interning.
	StemTokens bool
}

// NewPipeline returns a pipeline with tweet-appropriate defaults: stemming on,
// IDF on.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Vocab:      NewVocabulary(),
		UseIDF:     true,
		StemTokens: true,
	}
}

// TermIDs normalizes text to a bag of interned term IDs (with duplicates,
// preserving term frequency) and records the document for DF statistics.
func (p *Pipeline) TermIDs(text string) []TermID {
	toks := RemoveStopwords(Tokenize(text))
	if p.StemTokens {
		toks = StemAll(toks)
	}
	ids := make([]TermID, 0, len(toks))
	for _, tok := range toks {
		ids = append(ids, p.Vocab.Intern(tok.Text))
	}
	p.Vocab.ObserveDoc(ids)
	return ids
}

// Vector converts text into an L2-normalized TF or TF-IDF sparse vector.
// Empty or all-stopword text yields an empty vector.
func (p *Pipeline) Vector(text string) SparseVector {
	ids := p.TermIDs(text)
	return p.VectorFromIDs(ids)
}

// VectorFromIDs builds the weighted vector from a bag of term IDs without
// re-tokenizing (used when the caller already has IDs, e.g. generated
// workloads).
func (p *Pipeline) VectorFromIDs(ids []TermID) SparseVector {
	if len(ids) == 0 {
		return SparseVector{}
	}
	vec := make(SparseVector, len(ids))
	for _, id := range ids {
		vec[id]++
	}
	if p.UseIDF {
		for id, tf := range vec {
			vec[id] = tf * p.Vocab.IDF(id)
		}
	}
	vec.L2Normalize()
	return vec
}
