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

// FuzzGenerateComplete compares GenerateCompleteContext with the
// allocate-then-check reference loop on the demo movie data, over one to
// three keywords drawn from the demo vocabulary: every indexed term plus
// the aggregate words and the table and column names. flags selects the
// keyword count (bits 0–1), schema terms (bit 2) and aggregates (bit 3).
func FuzzGenerateComplete(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint16(2), uint8(0))
	f.Add(uint16(17), uint16(4242), uint16(99), uint8(2))
	f.Add(uint16(3), uint16(500), uint16(7), uint8(0x0e))
	f.Add(uint16(1), uint16(65535), uint16(12), uint8(0x0f))
	f.Fuzz(func(t *testing.T, a, b, c uint16, flags uint8) {
		d := demo(t)
		vocab := d.vocabulary()
		keywords := []string{vocab[int(a)%len(vocab)], vocab[int(b)%len(vocab)], vocab[int(c)%len(vocab)]}
		keywords = keywords[:1+int(flags&3)%3]
		opts := GenerateOptionsConfig{IncludeSchemaTerms: flags&4 != 0, IncludeAggregates: flags&8 != 0}
		checkMatchesReference(t, candidates(t, d.ix, keywords, opts), d.cat, GenerateConfig{})
	})
}
