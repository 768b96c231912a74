package invindex

import (
	"sort"
	"strings"
)

// dictChunk is the length of the chunks Build cuts the sorted term
// dictionary into. Apply lets a chunk grow to twice this before it
// splits it, so a patched chunk never costs more than 2*dictChunk
// string headers to copy.
const dictChunk = 256

// dictionary is the sorted set of every indexed term, held as a spine of
// sorted, non-empty chunks in ascending order. Chunks are never written
// once built: an index version shares every chunk with its predecessor
// except the ones its batch's new or vanished terms land in, so keeping
// the dictionary exact costs one spine copy and the touched chunks, not
// the vocabulary.
type dictionary struct {
	chunks [][]string
}

// newDictionary cuts an ascending, duplicate-free term list into chunks
// that share its backing array.
func newDictionary(sorted []string) dictionary {
	var d dictionary
	for len(sorted) > 0 {
		k := min(dictChunk, len(sorted))
		d.chunks = append(d.chunks, sorted[:k:k])
		sorted = sorted[k:]
	}
	return d
}

// withPrefix returns up to limit terms starting with prefix, ascending
// (limit <= 0 means unlimited), by binary search for the first chunk
// whose last term is >= prefix, then within it.
func (d dictionary) withPrefix(prefix string, limit int) []string {
	ci := sort.Search(len(d.chunks), func(i int) bool {
		c := d.chunks[i]
		return c[len(c)-1] >= prefix
	})
	if ci == len(d.chunks) {
		return nil
	}
	var out []string
	i := sort.SearchStrings(d.chunks[ci], prefix)
	for ; ci < len(d.chunks); ci, i = ci+1, 0 {
		for _, t := range d.chunks[ci][i:] {
			if !strings.HasPrefix(t, prefix) {
				return out
			}
			out = append(out, t)
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// patched returns the dictionary with added inserted and removed taken
// out; both are ascending, added holds no present term and removed only
// present ones. Every chunk neither list touches is shared with d. A new
// term goes to the first chunk whose last term is greater (the last
// chunk takes terms past the end); a chunk past 2*dictChunk is split and
// an emptied chunk is dropped.
func (d dictionary) patched(added, removed []string) dictionary {
	if len(d.chunks) == 0 {
		return newDictionary(added)
	}
	out := dictionary{chunks: make([][]string, 0, len(d.chunks)+1)}
	for i, c := range d.chunks {
		nadd, nrem := len(added), len(removed)
		if last := c[len(c)-1]; i < len(d.chunks)-1 {
			nadd = sort.SearchStrings(added, last)
			nrem = sort.Search(len(removed), func(j int) bool { return removed[j] > last })
		}
		if nadd == 0 && nrem == 0 {
			out.chunks = append(out.chunks, c)
			continue
		}
		merged := make([]string, 0, len(c)+nadd-nrem)
		ins, del := added[:nadd], removed[:nrem]
		for _, t := range c {
			for len(ins) > 0 && ins[0] < t {
				merged, ins = append(merged, ins[0]), ins[1:]
			}
			if len(del) > 0 && del[0] == t {
				del = del[1:]
				continue
			}
			merged = append(merged, t)
		}
		merged = append(merged, ins...)
		added, removed = added[nadd:], removed[nrem:]
		for len(merged) > 2*dictChunk {
			out.chunks = append(out.chunks, merged[:dictChunk:dictChunk])
			merged = merged[dictChunk:]
		}
		if len(merged) > 0 {
			out.chunks = append(out.chunks, merged)
		}
	}
	return out
}
