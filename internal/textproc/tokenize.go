// Package textproc provides the text substrate of the ad recommender:
// tweet-aware tokenization, stopword filtering, Porter stemming and TF-IDF
// weighted sparse vectors.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// minTokenLen is the shortest term kept, in runes.
const minTokenLen = 2

// scan appends the terms of tweet-like text to words, and each term's end
// offset in words to ends, in text order. Text splits into fields on
// unicode.IsSpace. A field that starts with http://, https:// or www. (in
// any case) is a URL and is dropped, as is an @-mention; a #hashtag is one
// term, the tag's letters and digits. Any other field splits into words,
// the runs of letters, digits and apostrophes, of which a stopword or a
// word of digits alone is dropped. A term is lowercased rune by rune, kept
// only if it is at least minTokenLen runes long, and Porter-stemmed in
// place, so only a term longer than words' spare capacity allocates.
func scan(text string, words []byte, ends []int) ([]byte, []int) {
	start := -1
	for i, r := range text {
		switch {
		case !unicode.IsSpace(r):
			if start < 0 {
				start = i
			}
		case start >= 0:
			words, ends = scanField(text[start:i], words, ends)
			start = -1
		}
	}
	if start >= 0 {
		words, ends = scanField(text[start:], words, ends)
	}
	return words, ends
}

func scanField(field string, words []byte, ends []int) ([]byte, []int) {
	switch {
	case hasURLPrefix(field), len(field) > 1 && field[0] == '@':
		return words, ends // URLs and mentions carry no topic
	case len(field) > 1 && field[0] == '#':
		start, runes := len(words), 0
		for _, r := range field[1:] {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				words = utf8.AppendRune(words, unicode.ToLower(r))
				runes++
			}
		}
		// a deliberate tag is signal: the stopword and digits rules pass it
		return term(words, ends, start, runes, false, false)
	}
	start, runes, digits := len(words), 0, true
	for _, r := range field {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '\'' {
			words = utf8.AppendRune(words, unicode.ToLower(r))
			runes++
			digits = digits && unicode.IsDigit(r)
			continue
		}
		if runes > 0 {
			words, ends = term(words, ends, start, runes, true, digits)
		}
		start, runes, digits = len(words), 0, true
	}
	if runes > 0 {
		words, ends = term(words, ends, start, runes, true, digits)
	}
	return words, ends
}

// term finishes the word lowered into words[start:], runes long. It is
// dropped when shorter than minTokenLen runes, and a plain word (not a
// hashtag) also when it is all digits or a stopword; the rest is stemmed.
func term(words []byte, ends []int, start, runes int, plain, digits bool) ([]byte, []int) {
	w := words[start:]
	if runes < minTokenLen || plain && (digits || isStopword(w)) {
		return words[:start], ends
	}
	words = words[:start+len(stem(w))]
	return words, append(ends, len(words))
}

// hasURLPrefix reports whether field starts with http://, https:// or www.
// in any case, exactly when strings.ToLower(field) does: the prefixes are
// ASCII, so a field whose first bytes are not has fewer runes there and
// fails EqualFold.
func hasURLPrefix(field string) bool {
	for _, prefix := range [...]string{"http://", "https://", "www."} {
		if len(field) >= len(prefix) && strings.EqualFold(field[:len(prefix)], prefix) {
			return true
		}
	}
	return false
}
