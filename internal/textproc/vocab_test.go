package textproc

import (
	"fmt"
	"sync"
	"testing"
)

func TestVocabularyInternLookup(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("apple")
	b := v.Intern("banana")
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if again := v.Intern("apple"); again != a {
		t.Fatalf("re-intern gave %d, want %d", again, a)
	}
	if id, ok := v.Lookup("apple"); !ok || id != a {
		t.Fatalf("Lookup(apple) = %d,%v", id, ok)
	}
	if _, ok := v.Lookup("cherry"); ok {
		t.Fatal("unknown term found")
	}
	if v.Term(a) != "apple" || v.Term(b) != "banana" {
		t.Fatal("Term round trip failed")
	}
	if v.Term(TermID(999)) != "" {
		t.Fatal("out-of-range Term should be empty")
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
}

func TestVocabularyIDF(t *testing.T) {
	v := NewVocabulary()
	common := v.Intern("common")
	rare := v.Intern("rare")
	for i := 0; i < 100; i++ {
		doc := []TermID{common}
		if i == 0 {
			doc = append(doc, rare)
		}
		v.ObserveDoc(doc)
	}
	if v.Docs() != 100 {
		t.Fatalf("Docs = %d", v.Docs())
	}
	if v.IDF(common) >= v.IDF(rare) {
		t.Fatalf("IDF(common)=%v should be < IDF(rare)=%v", v.IDF(common), v.IDF(rare))
	}
	if v.IDF(rare) <= 0 {
		t.Fatal("IDF must be positive")
	}
}

func TestObserveDocCountsDistinctTermsOnce(t *testing.T) {
	v := NewVocabulary()
	id := v.Intern("dup")
	v.ObserveDoc([]TermID{id, id, id})
	v.ObserveDoc([]TermID{id})
	// df should be 2 (two docs), not 4. With N=2, df=2:
	// idf = ln(1 + 2/3); with df=4 it would be ln(1 + 2/5).
	want := v.IDF(id)
	v2 := NewVocabulary()
	id2 := v2.Intern("dup")
	v2.ObserveDoc([]TermID{id2})
	v2.ObserveDoc([]TermID{id2})
	if want != v2.IDF(id2) {
		t.Fatalf("duplicate terms inflated df: %v vs %v", want, v2.IDF(id2))
	}
}

func TestVocabularyConcurrentIntern(t *testing.T) {
	v := NewVocabulary()
	var wg sync.WaitGroup
	const workers = 8
	ids := make([][]TermID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids[w] = append(ids[w], v.Intern(fmt.Sprintf("term-%d", i%50)))
			}
		}(w)
	}
	wg.Wait()
	if v.Size() != 50 {
		t.Fatalf("Size = %d, want 50", v.Size())
	}
	// All workers must agree on IDs.
	for i := 0; i < 50; i++ {
		want := ids[0][i]
		for w := 1; w < workers; w++ {
			if ids[w][i] != want {
				t.Fatalf("worker %d got different ID for term %d", w, i)
			}
		}
	}
}

func TestPipelineVector(t *testing.T) {
	p := NewPipeline()
	vec := p.Vector("The volleyball team plays volleyball tonight")
	if len(vec) == 0 {
		t.Fatal("vector should not be empty")
	}
	if !almostEqual(vec.Norm(), 1) {
		t.Fatalf("vector not normalized: %v", vec.Norm())
	}
	// "volleyball" appears twice → highest weight after stemming.
	stemID, ok := p.Vocab.Lookup(Stem("volleyball"))
	if !ok {
		t.Fatal("volleyball stem not interned")
	}
	for id, w := range vec {
		if w > vec[stemID] {
			t.Fatalf("term %q outweighs the volleyball stem", p.Vocab.Term(id))
		}
	}
}

func TestPipelineEmptyAndStopwordOnly(t *testing.T) {
	p := NewPipeline()
	if vec := p.Vector(""); len(vec) != 0 {
		t.Fatalf("empty text vector = %v", vec)
	}
	if vec := p.Vector("the and of to"); len(vec) != 0 {
		t.Fatalf("stopword-only vector = %v", vec)
	}
}

func TestPipelineWithoutIDFAndStem(t *testing.T) {
	p := NewPipeline()
	p.UseIDF = false
	p.StemTokens = false
	vec := p.Vector("running running walks")
	// TF only: running has tf 2, walks tf 1 → after L2 norm ratio 2:1.
	runID, _ := p.Vocab.Lookup("running")
	walkID, _ := p.Vocab.Lookup("walks")
	if !almostEqual(vec[runID]/vec[walkID], 2) {
		t.Fatalf("TF ratio = %v, want 2", vec[runID]/vec[walkID])
	}
}
