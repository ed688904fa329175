// Package textproc provides the text substrate of the ad recommender:
// tweet-aware tokenization, stopword filtering, Porter stemming and TF-IDF
// weighted sparse vectors.
package textproc

import (
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

// minTokenLen is the shortest token kept, in runes.
const minTokenLen = 2

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
