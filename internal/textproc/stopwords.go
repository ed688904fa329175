package textproc

// defaultStopwords is a compact English stopword list tuned for tweet text:
// the standard closed-class words plus the contractions and interjections
// that dominate social posts.
var defaultStopwords = map[string]struct{}{}

func init() {
	words := []string{
		"a", "about", "above", "after", "again", "against", "all", "also", "am",
		"an", "and", "any", "are", "aren't", "as", "at", "be", "because",
		"been", "before", "being", "below", "between", "both", "but", "by",
		"can", "can't", "cannot", "could", "couldn't", "did", "didn't", "do",
		"does", "doesn't", "doing", "don't", "down", "during", "each", "few",
		"for", "from", "further", "get", "got", "had", "hadn't", "has",
		"hasn't", "have", "haven't", "having", "he", "he'd", "he'll", "he's",
		"her", "here", "here's", "hers", "herself", "him", "himself", "his",
		"how", "how's", "i", "i'd", "i'll", "i'm", "i've", "if", "in", "into",
		"is", "isn't", "it", "it's", "its", "itself", "just", "let's", "like",
		"me", "more", "most", "mustn't", "my", "myself", "no", "nor", "not",
		"now", "of", "off", "on", "once", "only", "or", "other", "ought",
		"our", "ours", "ourselves", "out", "over", "own", "really", "same",
		"shan't", "she", "she'd", "she'll", "she's", "should", "shouldn't",
		"so", "some", "such", "than", "that", "that's", "the", "their",
		"theirs", "them", "themselves", "then", "there", "there's", "these",
		"they", "they'd", "they'll", "they're", "they've", "this", "those",
		"through", "to", "too", "under", "until", "up", "very", "was",
		"wasn't", "we", "we'd", "we'll", "we're", "we've", "were", "weren't",
		"what", "what's", "when", "when's", "where", "where's", "which",
		"while", "who", "who's", "whom", "why", "why's", "will", "with",
		"won't", "would", "wouldn't", "you", "you'd", "you'll", "you're",
		"you've", "your", "yours", "yourself", "yourselves",
		// tweet-specific noise
		"rt", "via", "amp", "lol", "omg", "idk", "tbh", "yeah", "yes", "nah",
		"gonna", "wanna", "gotta", "im", "u", "ur", "pls", "plz", "thx",
	}
	for _, w := range words {
		defaultStopwords[w] = struct{}{}
	}
}

// isStopword reports whether the lowercased word is in the default English
// social-media stopword list. The lookup's string conversion does not
// allocate.
func isStopword(word []byte) bool {
	_, ok := defaultStopwords[string(word)]
	return ok
}
