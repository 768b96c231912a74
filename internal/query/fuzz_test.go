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
// unpruned allocate-then-check reference loop on the demo movie data,
// over one to four keywords drawn from the demo vocabulary: every indexed
// term plus the aggregate words and the table and column names, and
// requires CompareKey to order every pair of the generated space as the
// keys do, SQL, String and Render to return the fmt-based references'
// bytes on every interpretation, and StreamCompleteContext to visit the
// same space. flags selects the keyword count (bits 0–1), schema terms
// (bit 2), aggregates (bit 3) and the catalogue (bit 4): the demo one at
// join path 4, or one without repeated tables as the construction
// simulations build it.
func FuzzGenerateComplete(f *testing.F) {
	f.Add(uint16(0), uint16(1), uint16(2), uint16(3), uint8(0))
	f.Add(uint16(17), uint16(4242), uint16(99), uint16(5), uint8(2))
	f.Add(uint16(3), uint16(500), uint16(7), uint16(11), uint8(0x0e))
	f.Add(uint16(1), uint16(65535), uint16(12), uint16(40000), uint8(0x0f))
	f.Add(uint16(9), uint16(300), uint16(2024), uint16(77), uint8(0x1f))
	f.Fuzz(func(t *testing.T, a, b, c, e uint16, flags uint8) {
		d := demo(t)
		vocab := d.vocabulary()
		keywords := []string{vocab[int(a)%len(vocab)], vocab[int(b)%len(vocab)], vocab[int(c)%len(vocab)], vocab[int(e)%len(vocab)]}
		keywords = keywords[:1+int(flags&3)]
		opts := GenerateOptionsConfig{IncludeSchemaTerms: flags&4 != 0, IncludeAggregates: flags&8 != 0}
		cat := d.cat
		if flags&16 != 0 {
			cat = d.distinctCatalog()
		}
		cands := candidates(t, d.ix, keywords, opts)
		space := checkMatchesReference(t, cands, cat, GenerateConfig{})
		checkKeyOrder(t, space)
		checkStreamMatches(t, cands, cat, GenerateConfig{})
		for _, q := range space {
			checkRender(t, q)
		}
	})
}
