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
	Kind TokenKind // word, hashtag, mention, or number
}

// TokenKind classifies tokens so downstream stages can treat social-media
// artifacts (hashtags, @-mentions, URLs) differently from plain words.
type TokenKind uint8

// Token kinds.
const (
	KindWord TokenKind = iota
	KindHashtag
	KindMention
	KindNumber
)

func (k TokenKind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindHashtag:
		return "hashtag"
	case KindMention:
		return "mention"
	case KindNumber:
		return "number"
	default:
		return "unknown"
	}
}

// Tokenizer splits tweet-like text into tokens. The zero value is not usable;
// construct with NewTokenizer.
type Tokenizer struct {
	keepMentions bool
	keepNumbers  bool
	minLen       int
}

// TokenizerOption configures a Tokenizer.
type TokenizerOption func(*Tokenizer)

// KeepMentions retains @user tokens (dropped by default: they rarely carry
// topical signal for ad matching).
func KeepMentions() TokenizerOption { return func(t *Tokenizer) { t.keepMentions = true } }

// KeepNumbers retains pure-digit tokens (dropped by default).
func KeepNumbers() TokenizerOption { return func(t *Tokenizer) { t.keepNumbers = true } }

// MinTokenLen drops tokens shorter than n runes (default 2).
func MinTokenLen(n int) TokenizerOption { return func(t *Tokenizer) { t.minLen = n } }

// NewTokenizer returns a tokenizer with tweet-appropriate defaults.
func NewTokenizer(opts ...TokenizerOption) *Tokenizer {
	t := &Tokenizer{minLen: 2}
	for _, opt := range opts {
		opt(t)
	}
	return t
}

// Tokenize splits text into tokens. URLs are removed entirely; hashtags keep
// their tag text with KindHashtag; mentions are dropped unless KeepMentions;
// everything else is split on non-alphanumeric runes and lowercased.
func (t *Tokenizer) Tokenize(text string) []Token {
	var out []Token
	for _, raw := range strings.Fields(text) {
		if isURL(raw) {
			continue
		}
		switch {
		case strings.HasPrefix(raw, "#") && len(raw) > 1:
			word := normalizeWord(raw[1:])
			if t.accept(word) {
				out = append(out, Token{Text: word, Kind: KindHashtag})
			}
		case strings.HasPrefix(raw, "@") && len(raw) > 1:
			if !t.keepMentions {
				continue
			}
			word := normalizeWord(raw[1:])
			if t.accept(word) {
				out = append(out, Token{Text: word, Kind: KindMention})
			}
		default:
			out = t.splitPlain(raw, out)
		}
	}
	return out
}

// Words is a convenience wrapper returning only the token texts.
func (t *Tokenizer) Words(text string) []string {
	toks := t.Tokenize(text)
	out := make([]string, len(toks))
	for i, tok := range toks {
		out[i] = tok.Text
	}
	return out
}

func (t *Tokenizer) splitPlain(raw string, out []Token) []Token {
	start := -1
	runes := []rune(raw)
	flush := func(end int) {
		if start < 0 {
			return
		}
		word := strings.ToLower(string(runes[start:end]))
		start = -1
		if !t.accept(word) {
			return
		}
		if isNumeric(word) {
			if t.keepNumbers {
				out = append(out, Token{Text: word, Kind: KindNumber})
			}
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

func (t *Tokenizer) accept(word string) bool {
	return len([]rune(word)) >= t.minLen
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
