package fca

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// paperCheckinContext builds the check-in context of the worked example
// (5 users × 3 locations × 3 slots).
func paperCheckinContext(t *testing.T) *TriContext {
	t.Helper()
	tc, err := NewTriContext(
		[]string{"Tom", "Luke", "Anna", "Sam", "Lia"},
		[]string{"m1", "m2", "m3"},
		[]string{"t1", "t2", "t3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	triples := [][3]string{
		{"Tom", "m1", "t1"}, {"Tom", "m1", "t2"}, {"Tom", "m1", "t3"},
		{"Luke", "m2", "t1"}, {"Luke", "m2", "t2"}, {"Luke", "m3", "t3"},
		{"Sam", "m1", "t3"},
		{"Lia", "m2", "t1"}, {"Lia", "m2", "t2"}, {"Lia", "m2", "t3"},
	}
	for _, tr := range triples {
		if err := tc.Relate(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// paperTweetContext builds the α>0.6 cut of the tweet context of the worked
// example (5 users × 5 URIs × 3 slots).
func paperTweetContext(t *testing.T) *FuzzyTriContext {
	t.Helper()
	f, err := NewFuzzyTriContext(
		[]string{"Tom", "Luke", "Anna", "Sam", "Lia"},
		[]string{"URI1", "URI2", "URI3", "URI4", "URI5"},
		[]string{"t1", "t2", "t3"},
	)
	if err != nil {
		t.Fatal(err)
	}
	set := func(u, uri, slot string, d float64) {
		t.Helper()
		if err := f.Set(u, uri, slot, d); err != nil {
			t.Fatal(err)
		}
	}
	// t1
	set("Tom", "URI1", "t1", 1.0)
	set("Luke", "URI1", "t1", 1.0)
	set("Anna", "URI3", "t1", 0.9)
	set("Sam", "URI2", "t1", 1.0)
	set("Lia", "URI5", "t1", 1.0)
	// t2
	set("Tom", "URI1", "t2", 1.0)
	set("Luke", "URI4", "t2", 0.8)
	set("Anna", "URI3", "t2", 0.8)
	set("Sam", "URI5", "t2", 0.75)
	set("Lia", "URI5", "t2", 0.8)
	// t3
	set("Tom", "URI3", "t3", 0.8)
	set("Luke", "URI1", "t3", 1.0)
	set("Anna", "URI3", "t3", 1.0)
	set("Sam", "URI2", "t3", 1.0)
	set("Lia", "URI5", "t3", 1.0)
	return f
}

func TestTriContextValidation(t *testing.T) {
	if _, err := NewTriContext([]string{"a", "a"}, []string{"m"}, []string{"t"}); err == nil {
		t.Error("duplicate object accepted")
	}
	tc, err := NewTriContext([]string{"a"}, []string{"m"}, []string{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Relate("b", "m", "t"); err == nil {
		t.Error("unknown object accepted")
	}
	if err := tc.Relate("a", "x", "t"); err == nil {
		t.Error("unknown attribute accepted")
	}
	if err := tc.Relate("a", "m", "x"); err == nil {
		t.Error("unknown condition accepted")
	}
	if err := tc.Relate("a", "m", "t"); err != nil {
		t.Fatal(err)
	}
	if !tc.inc[0].Test(0) {
		t.Error("triple absent after Relate")
	}
}

// triConceptsBrute enumerates triadic concepts by trying every (A2, A3)
// pair and checking maximality in every dimension — exponential, for tiny
// contexts only.
func triConceptsBrute(t *TriContext) []TriConcept {
	ng, nm, nb := len(t.objects), len(t.attributes), len(t.conditions)
	seen := map[string]TriConcept{}
	for am := 0; am < 1<<nm; am++ {
		for ab := 0; ab < 1<<nb; ab++ {
			a2 := NewBitSet(nm)
			for j := 0; j < nm; j++ {
				if am&(1<<j) != 0 {
					a2.Set(j)
				}
			}
			a3 := NewBitSet(nb)
			for k := 0; k < nb; k++ {
				if ab&(1<<k) != 0 {
					a3.Set(k)
				}
			}
			a1 := t.boxExtent(a2, a3)
			if !maximalTriple(t, a1, a2, a3, ng, nm, nb) {
				continue
			}
			key := a1.String() + "|" + a2.String() + "|" + a3.String()
			seen[key] = TriConcept{Extent: a1, Intent: a2, Modus: a3}
		}
	}
	out := make([]TriConcept, 0, len(seen))
	for _, c := range seen {
		out = append(out, c)
	}
	return out
}

// maximalTriple checks that the box A1×A2×A3 ⊆ Y cannot be extended in any
// dimension.
func maximalTriple(t *TriContext, a1, a2, a3 BitSet, ng, nm, nb int) bool {
	boxIn := func(a1, a2, a3 BitSet) bool {
		ok := true
		a1.ForEach(func(i int) {
			a2.ForEach(func(j int) {
				a3.ForEach(func(k int) {
					if !t.inc[i].Test(j*nb + k) {
						ok = false
					}
				})
			})
		})
		return ok
	}
	if !boxIn(a1, a2, a3) {
		return false
	}
	for i := 0; i < ng; i++ {
		if !a1.Test(i) {
			bigger := a1.Clone()
			bigger.Set(i)
			if boxIn(bigger, a2, a3) {
				return false
			}
		}
	}
	for j := 0; j < nm; j++ {
		if !a2.Test(j) {
			bigger := a2.Clone()
			bigger.Set(j)
			if boxIn(a1, bigger, a3) {
				return false
			}
		}
	}
	for k := 0; k < nb; k++ {
		if !a3.Test(k) {
			bigger := a3.Clone()
			bigger.Set(k)
			if boxIn(a1, a2, bigger) {
				return false
			}
		}
	}
	return true
}

func triKey(c TriConcept) string {
	return c.Extent.String() + "|" + c.Intent.String() + "|" + c.Modus.String()
}

func sortTri(cs []TriConcept) []string {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = triKey(c)
	}
	sort.Strings(keys)
	return keys
}

func TestTriasMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		ng, nm, nb := 1+rng.Intn(5), 1+rng.Intn(4), 1+rng.Intn(4)
		objs := make([]string, ng)
		attrs := make([]string, nm)
		conds := make([]string, nb)
		for i := range objs {
			objs[i] = "g" + string(rune('0'+i))
		}
		for j := range attrs {
			attrs[j] = "m" + string(rune('0'+j))
		}
		for k := range conds {
			conds[k] = "b" + string(rune('0'+k))
		}
		tc, err := NewTriContext(objs, attrs, conds)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < ng; i++ {
			for j := 0; j < nm; j++ {
				for k := 0; k < nb; k++ {
					if rng.Intn(3) == 0 {
						tc.RelateIdx(i, j, k)
					}
				}
			}
		}
		got := sortTri(tc.Concepts())
		want := sortTri(triConceptsBrute(tc))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%dx%dx%d):\nTRIAS %v\nbrute %v", trial, ng, nm, nb, got, want)
		}
	}
}

func TestPaperCheckinConcepts(t *testing.T) {
	tc := paperCheckinContext(t)
	comms, ok := tc.MTriadicConcepts("m2")
	if !ok {
		t.Fatal("m2 unknown")
	}
	// Expected m2-communities: ({Luke,Lia},{m2},{t1,t2}) and
	// ({Lia},{m2},{t1,t2,t3}).
	var got [][2]string
	for _, c := range comms {
		if c.Extent.IsEmpty() {
			continue
		}
		got = append(got, [2]string{
			join(tc.ExtentNames(c)), join(tc.ModusNames(c)),
		})
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
	want := [][2]string{
		{"Lia", "t1,t2,t3"},
		{"Lia,Luke", "t1,t2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("m2 communities = %v, want %v", got, want)
	}
}

func TestPaperTweetConcepts(t *testing.T) {
	cut := paperTweetContext(t).AlphaCut(0.6)
	uri1, ok := cut.MTriadicConcepts("URI1")
	if !ok {
		t.Fatal("URI1 unknown")
	}
	var got [][2]string
	for _, c := range uri1 {
		if c.Extent.IsEmpty() {
			continue
		}
		got = append(got, [2]string{join(cut.ExtentNames(c)), join(cut.ModusNames(c))})
	}
	sort.Slice(got, func(i, j int) bool { return got[i][0]+got[i][1] < got[j][0]+got[j][1] })
	want := [][2]string{
		{"Luke,Tom", "t1"},
		{"Luke", "t1,t3"},
		{"Tom", "t1,t2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("URI1 communities = %v, want %v", got, want)
	}
}

func join(xs []string) string { return strings.Join(xs, ",") }

func TestAlphaCutThresholds(t *testing.T) {
	f := paperTweetContext(t)
	if len(f.deg) != 15 {
		t.Fatalf("fuzzy triples = %d, want 15", len(f.deg))
	}
	// α = 0.75 drops Sam-URI5-t2 (0.75, strict cut) and nothing else below 0.8.
	cut := f.AlphaCut(0.75)
	if cut.inc[3].Test(4*3 + 1) { // Sam, URI5, t2
		t.Fatal("0.75-degree triple survived α=0.75 strict cut")
	}
	if !cut.inc[1].Test(3*3 + 1) { // Luke, URI4, t2 at 0.8
		t.Fatal("0.8-degree triple dropped at α=0.75")
	}
	// α = 1 keeps nothing.
	for _, row := range f.AlphaCut(1).inc {
		if !row.IsEmpty() {
			t.Fatal("α=1 cut should be empty")
		}
	}
}

func TestFuzzySetValidation(t *testing.T) {
	f, _ := NewFuzzyTriContext([]string{"u"}, []string{"m"}, []string{"t"})
	if err := f.Set("u", "m", "t", 1.5); err == nil {
		t.Error("degree > 1 accepted")
	}
	if err := f.Set("u", "m", "t", -0.1); err == nil {
		t.Error("negative degree accepted")
	}
	if err := f.Set("x", "m", "t", 0.5); err == nil {
		t.Error("unknown object accepted")
	}
	// Max-merge on repeated set.
	f.Set("u", "m", "t", 0.4)
	f.Set("u", "m", "t", 0.7)
	f.Set("u", "m", "t", 0.2)
	if got := f.deg[[3]int{0, 0, 0}]; got != 0.7 {
		t.Fatalf("degree = %v, want max 0.7", got)
	}
}
