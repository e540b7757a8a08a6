// Package text provides the tokenizer shared by the daemon, the classical
// baseline and the experiments.
package text

import (
	"strings"
	"unicode"
)

// Tokenize lower-cases s and splits it into maximal runs of letters and
// digits. Punctuation separates tokens and is dropped.
func Tokenize(s string) []string {
	s = strings.ToLower(s)
	tokens := make([]string, 0, len(s)/5+1)
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			tokens = append(tokens, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		tokens = append(tokens, s[start:])
	}
	return tokens
}

// Join renders tokens as a space-separated sentence.
func Join(tokens []string) string { return strings.Join(tokens, " ") }
