package textproc

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
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
	if id, ok := v.ids["apple"]; !ok || id != a {
		t.Fatalf("ids[apple] = %d,%v", id, ok)
	}
	if _, ok := v.ids["cherry"]; ok {
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
	if !almostEqual(norm(vec), 1) {
		t.Fatalf("vector not normalized: %v", norm(vec))
	}
	// "volleyball" appears twice → highest weight after stemming.
	stemID, ok := p.Vocab.ids[Stem("volleyball")]
	if !ok {
		t.Fatal("volleyball stem not interned")
	}
	for _, term := range vec {
		if term.W > weight(vec, stemID) {
			t.Fatalf("term %q outweighs the volleyball stem", p.Vocab.Term(term.ID))
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

// FuzzVectorMatchesTokenizeChain holds Pipeline.Vector's one pass to the
// chain it replaced (chainVector): over a sequence of texts, split on NUL,
// each vector must equal the chain's to the bit and be exactly as long as
// its terms, and the two vocabularies must end in the same terms, document
// frequencies and document count.
func FuzzVectorMatchesTokenizeChain(f *testing.F) {
	for _, seed := range []string{
		"The VOLLEYBALL team plays volleyball tonight",
		"watching #Volleyball tonight #GoTeam #the #2024 #a\x00#Go-Lang! rocks",
		"hey @alice see this @ @@x #",
		"read HTTP://example.com/x and Https://t.co/abc plus WWW.foo.org now http:/x www",
		"don't won't rock'n'roll '' 'a a' the's",
		"score was 21 to 19 tonight, 3rd 42nd 1e9 ٣٤ 12ab",
		"bad \xff\xfe utf8 caf\xc3 \xe2\x80 words\xffhere",
		"İstanbul İİ \u212aelvin \u212a\u212a straße SS ß ẞ Σίσυφος",
		"recommendations advertising connected happiness relational conditional generalization hopeful",
		"caresses ponies ties agreed plastered motoring sing conflated troubled sized hopping tanned falling",
		"a\u00a0b\u0085c\u2028d\u3000e\tf\vg\fh\ri\nj",
		"rt RT via lol omg 💥🔥 emoji🔥word",
		"",
		"\x00\x00the and of\x00running running RUNNING",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, texts string) {
		got, want := NewPipeline(), NewPipeline()
		for _, text := range strings.Split(texts, "\x00") {
			g, w := got.Vector(text), chainVector(want, text)
			if len(g) != len(w) || cap(g) != len(g) {
				t.Fatalf("Vector(%q) = %v (cap %d), want %v", text, g, cap(g), w)
			}
			for i := range g {
				if g[i].ID != w[i].ID || math.Float64bits(g[i].W) != math.Float64bits(w[i].W) {
					t.Fatalf("Vector(%q) = %v, want %v", text, g, w)
				}
			}
		}
		gt, gdf, gdocs := got.Vocab.Snapshot()
		wt, wdf, wdocs := want.Vocab.Snapshot()
		if !slices.Equal(gt, wt) || !slices.Equal(gdf, wdf) || gdocs != wdocs {
			t.Fatalf("vocabulary %q %v %d, want %q %v %d", gt, gdf, gdocs, wt, wdf, wdocs)
		}
	})
}

// TestVectorAllocations pins what a post of known terms costs: its vector,
// and nothing for its words, their stems, lookups or counts.
func TestVectorAllocations(t *testing.T) {
	p := NewPipeline()
	const post = "Watching the #Volleyball final tonight with @alice: running shoes on sale https://t.co/x"
	p.Vector(post)
	if got := testing.AllocsPerRun(100, func() { p.Vector(post) }); got > 1 {
		t.Fatalf("Vector of known terms allocates %.0f times, want at most 1", got)
	}
}

// TestPipelineConcurrentVector: documents vectorized from several goroutines
// at once count exactly as they do one at a time. Term IDs depend on who
// interns first, so the two vocabularies are compared by term.
func TestPipelineConcurrentVector(t *testing.T) {
	posts := []string{"running shoes on sale", "#Running tonight", "jazz and coffee", "shoes, shoes, shoes", "coffee"}
	serial, shared := NewPipeline(), NewPipeline()
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if vec := shared.Vector(posts[(w+i)%len(posts)]); !almostEqual(norm(vec), 1) {
					t.Errorf("vector %v not normalized", vec)
				}
			}
		}(w)
		for i := 0; i < rounds; i++ {
			serial.Vector(posts[(w+i)%len(posts)])
		}
	}
	wg.Wait()
	df := func(p *Pipeline) map[string]int {
		terms, counts, docs := p.Vocab.Snapshot()
		out := map[string]int{"": docs}
		for i, term := range terms {
			out[term] = counts[i]
		}
		return out
	}
	if got, want := df(shared), df(serial); !maps.Equal(got, want) {
		t.Fatalf("concurrent document counts %v, serial %v", got, want)
	}
}
