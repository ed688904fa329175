package textproc

import "testing"

// TestStemKnownPairs exercises the published Porter examples plus
// tweet-domain words.
func TestStemKnownPairs(t *testing.T) {
	tests := []struct{ in, want string }{
		// step 1a
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		// step 1b
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		// step 1c
		{"happy", "happi"},
		{"sky", "sky"},
		// step 2
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"digitizer", "digit"},
		{"operator", "oper"},
		// step 3
		{"triplicate", "triplic"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		// step 4
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"adjustment", "adjust"},
		{"adoption", "adopt"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"effective", "effect"},
		// step 5
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
		// domain words
		{"volleyball", "volleybal"},
		{"advertising", "advertis"},
		{"advertisement", "advertis"},
		{"recommendations", "recommend"},
		{"locations", "locat"},
	}
	for _, tt := range tests {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
		// the in-place stemmer, in a buffer exactly as long as the word
		if got := stem([]byte(tt.in)[:len(tt.in):len(tt.in)]); string(got) != tt.want {
			t.Errorf("stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	tests := []struct{ in, want string }{
		{"", ""},
		{"a", "a"},
		{"is", "is"},
		{"été", "été"},           // non-ASCII passes through
		{"abc1", "abc1"},         // digits pass through
		{"nation's", "nation's"}, // apostrophes pass through untouched
	}
	for _, tt := range tests {
		if got := Stem(tt.in); got != tt.want {
			t.Errorf("Stem(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestStemIdempotentOnFamilies checks the property the recommender relies on:
// morphological variants of the same word map to one stem.
func TestStemMergesFamilies(t *testing.T) {
	families := [][]string{
		{"connect", "connected", "connecting", "connection", "connections"},
		{"recommend", "recommends", "recommended", "recommending"},
		{"locate", "located", "locating"},
	}
	for _, fam := range families {
		base := Stem(fam[0])
		for _, w := range fam[1:] {
			if got := Stem(w); got != base {
				t.Errorf("family %v: Stem(%q)=%q, want %q", fam, w, got, base)
			}
		}
	}
}

func TestStemAll(t *testing.T) {
	toks := []Token{{"running", KindWord}, {"games", KindHashtag}}
	StemAll(toks)
	if toks[0].Text != "run" || toks[1].Text != "game" {
		t.Fatalf("StemAll = %v", toks)
	}
}

// BenchmarkStem times the in-place stemmer Pipeline.Vector runs, on a
// reused buffer as there.
func BenchmarkStem(b *testing.B) {
	words := []string{"recommendations", "advertising", "volleyball", "connected", "happiness"}
	var buf [32]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stem(append(buf[:0], words[i%len(words)]...))
	}
}
