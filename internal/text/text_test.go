package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"simple", "the quick fox", []string{"the", "quick", "fox"}},
		{"case folding", "The QUICK Fox", []string{"the", "quick", "fox"}},
		{"punctuation", "hello, world! a-b", []string{"hello", "world", "a", "b"}},
		{"digits", "port 8080 open", []string{"port", "8080", "open"}},
		{"empty", "", nil},
		{"only punctuation", "?!,.", nil},
		{"leading trailing space", "  padded  ", []string{"padded"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Tokenize(tc.in)
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

// Property: every token produced by Tokenize is non-empty and lower-case,
// and re-tokenizing a joined token stream is the identity.
func TestTokenizeQuick(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				return false
			}
			if Tokenize(tok)[0] != tok {
				return false
			}
		}
		again := Tokenize(Join(toks))
		return reflect.DeepEqual(again, toks) || (len(again) == 0 && len(toks) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
