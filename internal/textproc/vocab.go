package textproc

import (
	"fmt"
	"math"
	"slices"
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
	return v.intern(term)
}

// intern is Intern for a caller that holds mu.
func (v *Vocabulary) intern(term string) TermID {
	if id, ok := v.ids[term]; ok {
		return id
	}
	id := TermID(len(v.terms))
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

// Docs returns the number of documents observed by Pipeline.Vector.
func (v *Vocabulary) Docs() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.docs
}

// document interns the terms words[ends[i-1]:ends[i]] in order, counts one
// more document and each distinct term's document frequency, and returns
// the document's L2-normalized TF-IDF vector, exactly as long as its
// distinct terms. It takes mu once, so every weight reads one vocabulary
// state. ids is scratch space for the term IDs.
func (v *Vocabulary) document(words []byte, ends []int, ids []TermID) SparseVector {
	v.mu.Lock()
	defer v.mu.Unlock()
	start := 0
	for _, end := range ends {
		id, ok := v.ids[string(words[start:end])]
		if !ok {
			id = v.intern(string(words[start:end]))
		}
		ids = append(ids, id)
		start = end
	}
	slices.Sort(ids)
	distinct := 0
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			distinct++
		}
	}
	vec := make(SparseVector, 0, distinct)
	v.docs++
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			vec[len(vec)-1].W++
			continue
		}
		vec = append(vec, Term{ID: id, W: 1})
		v.df[id]++
	}
	return weigh(vec, v.idf)
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

// idf is the smoothed inverse document frequency of an interned term,
// ln(1 + N/(1 + df)), for a caller that holds mu.
func (v *Vocabulary) idf(id TermID) float64 {
	return math.Log(1 + float64(v.docs)/float64(1+v.df[id]))
}

// Pipeline bundles tokenizer + vocabulary into the standard text → vector
// transformation used for both messages and ads: stopwords removed, tokens
// Porter-stemmed, terms weighted by TF-IDF.
type Pipeline struct {
	Vocab *Vocabulary
}

// NewPipeline returns a pipeline over an empty vocabulary.
func NewPipeline() *Pipeline {
	return &Pipeline{Vocab: NewVocabulary()}
}

// Vector converts text into an L2-normalized TF-IDF sparse vector and
// records the document for DF statistics, in one pass over the text (scan)
// and one vocabulary lock. Empty or all-stopword text yields an empty
// vector. A post of known terms allocates only the vector.
func (p *Pipeline) Vector(text string) SparseVector {
	var wordBuf [256]byte
	var endBuf [32]int
	var idBuf [32]TermID
	words, ends := scan(text, wordBuf[:0], endBuf[:0])
	return p.Vocab.document(words, ends, idBuf[:0])
}
