package textproc

import (
	"reflect"
	"testing"
)

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []Token
	}{
		{
			"plain words",
			"The nation's best volleyball returns tomorrow",
			[]Token{
				{"the", KindWord}, {"nation's", KindWord}, {"best", KindWord},
				{"volleyball", KindWord}, {"returns", KindWord}, {"tomorrow", KindWord},
			},
		},
		{
			"hashtags",
			"watching #Volleyball tonight #GoTeam",
			[]Token{
				{"watching", KindWord}, {"volleyball", KindHashtag},
				{"tonight", KindWord}, {"goteam", KindHashtag},
			},
		},
		{
			"mentions dropped by default",
			"hey @alice see this",
			[]Token{{"hey", KindWord}, {"see", KindWord}, {"this", KindWord}},
		},
		{
			"urls removed",
			"read https://example.com/x and http://t.co/abc plus www.foo.org now",
			[]Token{{"read", KindWord}, {"and", KindWord}, {"plus", KindWord}, {"now", KindWord}},
		},
		{
			"punctuation splits",
			"well,done! really?yes",
			[]Token{{"well", KindWord}, {"done", KindWord}, {"really", KindWord}, {"yes", KindWord}},
		},
		{
			"numbers dropped by default",
			"score was 21 to 19 tonight",
			[]Token{{"score", KindWord}, {"was", KindWord}, {"to", KindWord}, {"tonight", KindWord}},
		},
		{
			"short tokens dropped",
			"a b cd",
			[]Token{{"cd", KindWord}},
		},
		{
			"empty",
			"",
			nil,
		},
		{
			"unicode letters kept",
			"café naïve",
			[]Token{{"café", KindWord}, {"naïve", KindWord}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.in)
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestTokenizeHashtagPunctuation(t *testing.T) {
	got := Tokenize("#Go-Lang! rocks")
	want := []Token{{"golang", KindHashtag}, {"rocks", KindWord}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "and", "rt", "gonna", "won't"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"volleyball", "adidas", "stadium"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestRemoveStopwordsKeepsHashtags(t *testing.T) {
	toks := []Token{
		{"the", KindWord},
		{"the", KindHashtag}, // deliberate tag: kept
		{"match", KindWord},
	}
	got := RemoveStopwords(toks)
	want := []Token{{"the", KindHashtag}, {"match", KindWord}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestTokenKindString(t *testing.T) {
	if KindWord.String() != "word" || KindHashtag.String() != "hashtag" {
		t.Error("TokenKind.String mismatch")
	}
	if TokenKind(99).String() != "unknown" {
		t.Error("unknown kind should stringify to unknown")
	}
}
