package prob

import (
	"slices"
	"sync"

	"repro/internal/query"
)

// TopK ranks a stream of interpretations, such as the views of
// query.StreamCompleteContext, keeping only the k best: every
// interpretation is scored and added to the normalising total, and only
// one that ranks among the best k so far is copied, into a working slot
// that a better interpretation may later overwrite. Ranked copies the
// winners once more, into storage of exactly their size that the caller
// owns, so the working slots and the factor memo go back to a pool with
// the TopK on Release. A TopK is for one request and one goroutine.
type TopK struct {
	f     *factors
	k     int
	n     int // interpretations added
	total float64
	// heap holds the kept interpretations with the worst-ranked at the
	// root. Every entry up to its capacity has a working slot as its Q,
	// so a position past the end holds a free slot to fill.
	heap []Scored
}

// firstSlots is the number of working slots a TopK starts with when k
// is larger; it doubles from there up to k.
const firstSlots = 16

// maxPooledSlots bounds the working slots kept for reuse: a TopK grown
// past it by an unusually large k is dropped on Release.
const maxPooledSlots = 64

var topPool = sync.Pool{New: func() any { return &TopK{f: newMemo()} }}

// NewTopK starts ranking a stream, keeping its k best interpretations;
// with k ≤ 0 it keeps none and only counts and sums. Release it when
// done, whether or not Ranked was called.
func (m *Model) NewTopK(k int) *TopK {
	t := topPool.Get().(*TopK)
	t.f.m, t.k = m, k
	return t
}

// Add scores q exactly as RankContext does, adds the score to the
// normalising total in stream order, which is the order RankContext sums
// in, and keeps a copy of q when it ranks among the k best so far. q may
// be a transient view: Add keeps no reference to it.
func (t *TopK) Add(q *query.Interpretation) {
	s := Scored{Q: q, Score: t.f.score(q)}
	t.n++
	t.total += s.Score
	if i := len(t.heap); i < t.k {
		if i == cap(t.heap) {
			t.grow(len(q.Bindings))
		}
		t.heap = t.heap[:i+1]
		t.heap[i].Q.CopyFrom(q)
		t.heap[i].Score = s.Score
		t.up(i)
		return
	}
	if len(t.heap) == 0 || compareScored(s, t.heap[0]) >= 0 {
		return
	}
	t.heap[0].Q.CopyFrom(q)
	t.heap[0].Score = s.Score
	t.down(0)
}

// grow doubles the heap's room, up to k, giving each new position a
// working slot with room for m bindings.
func (t *TopK) grow(m int) {
	n := min(t.k, max(2*cap(t.heap), firstSlots))
	heap := make([]Scored, len(t.heap), n)
	copy(heap, t.heap)
	slots := query.NewSlots(n-len(heap), m)
	for i := range slots {
		heap[:n][len(heap)+i].Q = &slots[i]
	}
	t.heap = heap
}

// up restores the heap above i.
func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if compareScored(t.heap[i], t.heap[p]) <= 0 {
			return
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

// down restores the heap below i.
func (t *TopK) down(i int) {
	for {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(t.heap) && compareScored(t.heap[c], t.heap[w]) > 0 {
				w = c
			}
		}
		if w == i {
			return
		}
		t.heap[i], t.heap[w] = t.heap[w], t.heap[i]
		i = w
	}
}

// Ranked ends the stream. It returns copies of the kept interpretations
// in rank order with their probabilities normalised over everything
// added, which is RankContext's ranking of the whole stream cut to k,
// and the number of interpretations added. The copies outlive Release.
func (t *TopK) Ranked() ([]Scored, int) {
	if len(t.heap) == 0 {
		return nil, t.n
	}
	slices.SortFunc(t.heap, compareScored)
	m := 0
	for _, s := range t.heap {
		m = max(m, len(s.Q.Bindings))
	}
	out := make([]Scored, len(t.heap))
	slots := query.NewSlots(len(out), m)
	for i, s := range t.heap {
		slots[i].CopyFrom(s.Q)
		out[i] = Scored{Q: &slots[i], Score: s.Score}
		if t.total > 0 {
			out[i].Prob = s.Score / t.total
		}
	}
	return out, t.n
}

// Release empties t and returns it to the pool; t must not be used
// after.
func (t *TopK) Release() {
	if !t.f.reset() || cap(t.heap) > maxPooledSlots {
		return
	}
	*t = TopK{f: t.f, heap: t.heap[:0]}
	topPool.Put(t)
}
