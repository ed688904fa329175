package textproc

// The tokenize → remove stopwords → stem → intern → observe → bag chain
// that Pipeline.Vector replaced, kept as the oracle it is held to
// (FuzzVectorMatchesTokenizeChain) and as the specification the tokenizer,
// stopword and stemmer tests read.

import (
	"math"
	"strings"
	"unicode"
)

// Token is one lexical unit extracted from raw text.
type Token struct {
	Text string    // normalized (lowercased) surface form
	Kind TokenKind // word or hashtag
}

// TokenKind classifies tokens so downstream stages can treat social-media
// artifacts (hashtags) differently from plain words.
type TokenKind uint8

// Token kinds.
const (
	KindWord TokenKind = iota
	KindHashtag
)

func (k TokenKind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindHashtag:
		return "hashtag"
	default:
		return "unknown"
	}
}

// Tokenize splits tweet-like text into tokens. URLs, @-mentions and
// pure-digit tokens are dropped (they rarely carry topical signal for ad
// matching), as is anything shorter than two runes; hashtags keep their tag
// text with KindHashtag; everything else is split on non-alphanumeric runes
// and lowercased.
func Tokenize(text string) []Token {
	var out []Token
	for _, raw := range strings.Fields(text) {
		if isURL(raw) {
			continue
		}
		switch {
		case strings.HasPrefix(raw, "#") && len(raw) > 1:
			word := normalizeWord(raw[1:])
			if accept(word) {
				out = append(out, Token{Text: word, Kind: KindHashtag})
			}
		case strings.HasPrefix(raw, "@") && len(raw) > 1:
			// mentions carry no topic
		default:
			out = splitPlain(raw, out)
		}
	}
	return out
}

func splitPlain(raw string, out []Token) []Token {
	start := -1
	runes := []rune(raw)
	flush := func(end int) {
		if start < 0 {
			return
		}
		word := strings.ToLower(string(runes[start:end]))
		start = -1
		if !accept(word) || isNumeric(word) {
			return
		}
		out = append(out, Token{Text: word, Kind: KindWord})
	}
	for i, r := range runes {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(runes))
	return out
}

func accept(word string) bool {
	return len([]rune(word)) >= minTokenLen
}

func normalizeWord(s string) string {
	var b strings.Builder
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		}
	}
	return b.String()
}

func isURL(s string) bool {
	ls := strings.ToLower(s)
	return strings.HasPrefix(ls, "http://") ||
		strings.HasPrefix(ls, "https://") ||
		strings.HasPrefix(ls, "www.")
}

func isNumeric(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}

// IsStopword reports whether the normalized word is in the default English
// social-media stopword list.
func IsStopword(word string) bool {
	_, ok := defaultStopwords[word]
	return ok
}

// RemoveStopwords filters a token slice in a newly allocated slice, keeping
// hashtags even when their text collides with a stopword (a deliberate tag is
// signal).
func RemoveStopwords(toks []Token) []Token {
	out := make([]Token, 0, len(toks))
	for _, tok := range toks {
		if tok.Kind != KindHashtag && IsStopword(tok.Text) {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// Stem reduces an English word to its stem using the classic Porter (1980)
// algorithm. Input must already be lowercased; non-ASCII-letter input is
// returned unchanged. Words of length ≤ 2 are returned unchanged, per the
// original algorithm.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] < 'a' || word[i] > 'z' {
			return word
		}
	}
	w := &stemmer{b: []byte(word)}
	w.step1a()
	w.step1b()
	w.step1c()
	w.step2()
	w.step3()
	w.step4()
	w.step5a()
	w.step5b()
	return string(w.b)
}

// StemAll stems every token in place and returns the slice for chaining.
func StemAll(toks []Token) []Token {
	for i := range toks {
		toks[i].Text = Stem(toks[i].Text)
	}
	return toks
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

// chainBag returns the L2-normalized vector of a bag of term IDs: each distinct
// term weighs its count times weight(id). An empty bag gives an empty vector.
func chainBag(ids []TermID, weight func(TermID) float64) SparseVector {
	terms := make([]Term, len(ids))
	for i, id := range ids {
		terms[i] = Term{ID: id, W: 1}
	}
	vec := NewVector(terms)
	var sum float64
	for i := range vec {
		vec[i].W *= weight(vec[i].ID)
		sum += vec[i].W * vec[i].W
	}
	if sum > 0 {
		inv := 1 / math.Sqrt(sum)
		for i := range vec {
			vec[i].W *= inv
		}
	}
	return vec
}

// chainVector is what Pipeline.Vector computed before it became one pass.
func chainVector(p *Pipeline, text string) SparseVector {
	toks := StemAll(RemoveStopwords(Tokenize(text)))
	ids := make([]TermID, 0, len(toks))
	for _, tok := range toks {
		ids = append(ids, p.Vocab.Intern(tok.Text))
	}
	p.Vocab.ObserveDoc(ids)
	return chainBag(ids, p.Vocab.IDF)
}
