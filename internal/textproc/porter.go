package textproc

// stem reduces a lowercased English word to its stem in place, using the
// classic Porter (1980) algorithm, and returns the stem: a prefix of word's
// array, since no step leaves a word longer than it was. A word of two
// bytes or fewer, or with a byte outside a–z, is returned unchanged.
func stem(word []byte) []byte {
	if len(word) <= 2 {
		return word
	}
	for _, c := range word {
		if c < 'a' || c > 'z' {
			return word
		}
	}
	w := stemmer{b: word}
	w.step1a()
	w.step1b()
	w.step1c()
	w.step2()
	w.step3()
	w.step4()
	w.step5a()
	w.step5b()
	return w.b
}

type stemmer struct {
	b []byte
}

// isConsonant reports whether b[i] is a consonant per Porter's definition:
// 'y' is a consonant when preceded by a vowel position (i.e., when the
// previous letter is not a consonant).
func (s *stemmer) isConsonant(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isConsonant(i - 1)
	default:
		return true
	}
}

// measure computes m, the number of VC sequences in b[:end].
func (s *stemmer) measureTo(end int) int {
	n := 0
	i := 0
	// skip initial consonants
	for i < end && s.isConsonant(i) {
		i++
	}
	for i < end {
		// in a vowel run
		for i < end && !s.isConsonant(i) {
			i++
		}
		if i >= end {
			break
		}
		n++
		for i < end && s.isConsonant(i) {
			i++
		}
	}
	return n
}

func (s *stemmer) hasSuffix(suf string) bool {
	n := len(s.b)
	m := len(suf)
	if m >= n {
		return false // a suffix equal to the whole word leaves no stem
	}
	return string(s.b[n-m:]) == suf
}

// m returns the measure of the stem remaining after removing suffix suf.
func (s *stemmer) m(suf string) int {
	return s.measureTo(len(s.b) - len(suf))
}

// stemHasVowel reports whether the stem before suffix suf contains a vowel.
func (s *stemmer) stemHasVowel(suf string) bool {
	end := len(s.b) - len(suf)
	for i := 0; i < end; i++ {
		if !s.isConsonant(i) {
			return true
		}
	}
	return false
}

// replace removes suffix suf and appends rep. It reslices b within its
// capacity rather than appending, so the word never moves: no step makes a
// word longer than it was, and b stays the caller's (stack) buffer.
func (s *stemmer) replace(suf, rep string) {
	n := len(s.b) - len(suf)
	s.b = s.b[:n+len(rep)]
	copy(s.b[n:], rep)
}

// endsDoubleConsonant reports whether the word ends with the same consonant
// twice.
func (s *stemmer) endsDoubleConsonant() bool {
	n := len(s.b)
	if n < 2 {
		return false
	}
	return s.b[n-1] == s.b[n-2] && s.isConsonant(n-1)
}

// endsCVC reports whether the last three letters of the stem before suffix
// suf form consonant-vowel-consonant where the final consonant is not w, x
// or y ("*o" condition in Porter's notation).
func (s *stemmer) endsCVC(suf string) bool {
	end := len(s.b) - len(suf)
	if end < 3 {
		return false
	}
	if !s.isConsonant(end-3) || s.isConsonant(end-2) || !s.isConsonant(end-1) {
		return false
	}
	switch s.b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.replace("sses", "ss")
	case s.hasSuffix("ies"):
		s.replace("ies", "i")
	case s.hasSuffix("ss"):
		// keep
	case s.hasSuffix("s"):
		s.replace("s", "")
	}
}

func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.m("eed") > 0 {
			s.replace("eed", "ee")
		}
		return
	}
	removed := false
	switch {
	case s.hasSuffix("ed") && s.stemHasVowel("ed"):
		s.replace("ed", "")
		removed = true
	case s.hasSuffix("ing") && s.stemHasVowel("ing"):
		s.replace("ing", "")
		removed = true
	}
	if !removed {
		return
	}
	switch {
	case s.hasSuffix("at"):
		s.replace("at", "ate")
	case s.hasSuffix("bl"):
		s.replace("bl", "ble")
	case s.hasSuffix("iz"):
		s.replace("iz", "ize")
	case s.endsDoubleConsonant():
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measureTo(len(s.b)) == 1 && s.endsCVC(""):
		s.replace("", "e")
	}
}

func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.stemHasVowel("y") {
		s.b[len(s.b)-1] = 'i'
	}
}

var step2Rules = []struct{ suf, rep string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func (s *stemmer) step2() {
	for _, r := range step2Rules {
		if s.hasSuffix(r.suf) {
			if s.m(r.suf) > 0 {
				s.replace(r.suf, r.rep)
			}
			return
		}
	}
}

var step3Rules = []struct{ suf, rep string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func (s *stemmer) step3() {
	for _, r := range step3Rules {
		if s.hasSuffix(r.suf) {
			if s.m(r.suf) > 0 {
				s.replace(r.suf, r.rep)
			}
			return
		}
	}
}

func (s *stemmer) step4() {
	// "ion" needs an extra condition: stem must end in s or t.
	if s.hasSuffix("ion") {
		end := len(s.b) - 3
		if s.m("ion") > 1 && end > 0 && (s.b[end-1] == 's' || s.b[end-1] == 't') {
			s.replace("ion", "")
		}
		return
	}
	// Longest-match first: sort is implicit in ordering of checks below, but
	// several suffixes overlap ("ement" ⊃ "ment" ⊃ "ent"), so check longer
	// variants before shorter ones.
	ordered := []string{
		"ement", "ance", "ence", "able", "ible", "ment", "ant", "ent", "ism",
		"ate", "iti", "ous", "ive", "ize", "ou", "al", "er", "ic",
	}
	for _, suf := range ordered {
		if s.hasSuffix(suf) {
			if s.m(suf) > 1 {
				s.replace(suf, "")
			}
			return
		}
	}
}

func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	m := s.m("e")
	if m > 1 || (m == 1 && !s.endsCVC("e")) {
		s.replace("e", "")
	}
}

func (s *stemmer) step5b() {
	n := len(s.b)
	if n > 1 && s.b[n-1] == 'l' && s.b[n-2] == 'l' && s.measureTo(n) > 1 {
		s.b = s.b[:n-1]
	}
}
