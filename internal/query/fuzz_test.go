package query

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzNormalizeKeywords locks the invariants of keyword normalisation,
// the very first step of the interpretation pipeline: the output is
// positionally aligned with the input, lower-cased, whitespace-trimmed,
// and idempotent — properties interpretation deduplication relies on
// (keyword identity is positional, Definition 3.5.1).
func FuzzNormalizeKeywords(f *testing.F) {
	f.Add("Tom", "HANKS", " terminal ")
	f.Add("", "  ", "\t\n")
	f.Add("Ämile", "ÐURO", "ärzte")
	f.Add("label:Keyword", "123", "ALL-CAPS")
	f.Add("ｗｉｄｅ", "ʼn", "İstanbul")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		in := []string{a, b, c}
		out := normalizeKeywords(in)
		if len(out) != len(in) {
			t.Fatalf("length changed: %d -> %d", len(in), len(out))
		}
		for i, kw := range out {
			if want := strings.ToLower(strings.TrimSpace(in[i])); kw != want {
				t.Errorf("out[%d] = %q, want %q", i, kw, want)
			}
			for _, r := range kw {
				if unicode.IsUpper(r) && unicode.ToLower(r) != r {
					t.Errorf("out[%d] = %q contains lowerable upper-case rune %q", i, kw, r)
				}
			}
			if strings.TrimSpace(kw) != kw {
				t.Errorf("out[%d] = %q keeps leading/trailing space", i, kw)
			}
		}
		again := normalizeKeywords(out)
		for i := range out {
			if again[i] != out[i] {
				t.Errorf("not idempotent at %d: %q -> %q", i, out[i], again[i])
			}
		}
	})
}
