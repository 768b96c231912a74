// Package qcache is the engine-lifetime materialized answer cache: the
// qunits idea ("Qunits: queried units in database search") applied to
// this engine's execution layer. The per-request SelectionCache forgets
// everything when the response is written; qcache promotes the units it
// computed — keyword-bag selections, whole candidate-network results,
// and non-empty-result counts — into a shared, byte-budgeted store so a
// hot query pays the posting-intersection and semi-join cost once, not
// once per request.
//
// # Admission and eviction
//
// What got asked for is the hotness signal, so admission is 2Q-style:
// a first Put only records the key in a ghost "seen" map (bounded, two
// rotating generations) and is rejected; a key is admitted once it has
// been requested again while still remembered. Without the gate, a
// stream of never-repeated queries fills the budget with entries that
// are never read and evicts the ones that are. Resident entries live on
// one LRU list: a hit moves the entry to the front, and an admitted
// entry evicts from the tail until it fits the byte budget.
//
// # Snapshot-coupled correctness
//
// The store owns a monotone clock. Every mutation batch calls
// Invalidate(stale, publish): under the store mutex the clock is
// bumped, each stale attribute records the bump, entries whose
// footprint intersects the batch are deleted, and only then — still
// inside the critical section — the engine's snapshot pointer is
// swapped by the publish callback. Readers do the reverse: a View
// captures the clock BEFORE the request loads the snapshot pointer, and
// the store serves or accepts an entry only while every footprint
// attribute's last bump is ≤ the view's clock. This ordering makes both
// hazards impossible: a reader on the old snapshot cannot be served an
// entry published for the new one (the bump is visible to its validity
// check), and a slow request cannot publish a result computed from a
// pre-batch snapshot after the batch lands (its Put fails the same
// check). Races only ever cause over-rejection — a miss, never a wrong
// answer. Checkpoint compaction rewrites RowIDs at an unchanged epoch;
// it invalidates through the same path with every attribute of the
// compacted tables, which is why validity is clock-based rather than
// epoch-stamped.
package qcache

import (
	"strconv"
	"sync"

	"repro/internal/relstore"
)

// Entry kinds, also the persisted discriminator bytes.
const (
	kindSelection byte = 's'
	kindPlan      byte = 'p'
	kindCount     byte = 'c'
)

const (
	// minSeen is the number of observations (Put attempts) a key needs
	// before it is admitted: the first records it in the ghost map, the
	// second admits. "Requested twice" is the cheapest robust hotness
	// signal a query log gives.
	minSeen = 2
	// ghostGenCap bounds one generation of the ghost seen-map; two
	// generations rotate, so at most 2×ghostGenCap keys are remembered
	// and memory stays bounded without any clock.
	ghostGenCap = 8192
	// entryOverhead approximates the per-entry bookkeeping bytes
	// (struct, map slots, key string headers) charged on top of the
	// payload so the budget reflects real memory, not just row IDs.
	entryOverhead = 128
)

type entryKey struct {
	kind byte
	key  string
}

type entry struct {
	k         entryKey
	footprint []relstore.Attr

	rows  []int   // kindSelection payload
	plan  [][]int // kindPlan payload (per-JTT row assignments)
	count int     // kindCount payload

	bytes      int64  // size(), charged against the budget
	prev, next *entry // intrusive LRU list, nil-terminated
}

// size is the entry's charge against the byte budget, computed from its
// key and payload. Every insert path uses it, so a byte count is never
// taken on trust from a caller or from disk.
func (e *entry) size() int64 {
	n := entryOverhead + int64(len(e.k.key)) + 8*int64(len(e.rows))
	for _, r := range e.plan {
		n += 24 + 8*int64(len(r))
	}
	return n
}

// lruList is an intrusive doubly-linked list, head = MRU, tail = LRU.
type lruList struct {
	head, tail *entry
}

func (l *lruList) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	BudgetBytes    int64
	ResidentBytes  int64
	HighWaterBytes int64
	Entries        int

	Hits             uint64
	Misses           uint64
	Evictions        uint64
	Invalidations    uint64
	StalePutRejects  uint64
	AdmissionRejects uint64
}

// Store is the engine-lifetime answer cache. One Store serves one
// Engine; all methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	budget int64

	entries map[entryKey]*entry
	// byAttr indexes resident entries by footprint attribute, so a
	// mutation batch deletes exactly the intersecting entries without a
	// full scan.
	byAttr map[relstore.Attr]map[*entry]struct{}

	// clock counts invalidation events; lastBump records, per attribute,
	// the clock at which it was last invalidated. Views validate against
	// these (see package comment).
	clock    uint64
	lastBump map[relstore.Attr]uint64

	lru lruList

	// ghost admission state: seen-counts in two rotating generations.
	seenCur, seenPrev map[entryKey]uint8

	resident  int64
	highWater int64

	hits, misses, evictions, invalidations uint64
	stalePutRejects, admissionRejects      uint64
}

// New creates a store with the given byte budget. The budget covers
// payload plus per-entry overhead; it must be positive.
func New(budgetBytes int64) *Store {
	return &Store{
		budget:   budgetBytes,
		entries:  make(map[entryKey]*entry),
		byAttr:   make(map[relstore.Attr]map[*entry]struct{}),
		lastBump: make(map[relstore.Attr]uint64),
		seenCur:  make(map[entryKey]uint8),
		seenPrev: make(map[entryKey]uint8),
	}
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		BudgetBytes:      s.budget,
		ResidentBytes:    s.resident,
		HighWaterBytes:   s.highWater,
		Entries:          len(s.entries),
		Hits:             s.hits,
		Misses:           s.misses,
		Evictions:        s.evictions,
		Invalidations:    s.invalidations,
		StalePutRejects:  s.stalePutRejects,
		AdmissionRejects: s.admissionRejects,
	}
}

// Invalidate applies one mutation batch to the cache and publishes the
// batch's snapshot, atomically with respect to every cache operation:
// the clock bump, the per-attribute bump records, the deletion of
// intersecting entries, and the publish callback (the engine's snapshot
// pointer swap) all happen inside one critical section. Callers must
// pass every attribute the batch changed (relstore.ChangedAttrs, or
// relstore.AllTableAttrs for compaction) and must perform the pointer
// swap only inside publish. publish may be nil when there is no pointer
// to swap (tests).
func (s *Store) Invalidate(stale []relstore.Attr, publish func()) {
	s.mu.Lock()
	s.clock++
	for _, a := range stale {
		s.lastBump[a] = s.clock
		for e := range s.byAttr[a] {
			s.removeLocked(e)
			s.invalidations++
		}
	}
	if publish != nil {
		publish()
	}
	s.mu.Unlock()
}

// insertLocked indexes e by key and footprint and charges e.bytes to
// the budget. Callers set e.bytes from size(), check the budget first,
// and link e into the LRU list.
func (s *Store) insertLocked(e *entry) {
	s.entries[e.k] = e
	for _, a := range e.footprint {
		set := s.byAttr[a]
		if set == nil {
			set = make(map[*entry]struct{})
			s.byAttr[a] = set
		}
		set[e] = struct{}{}
	}
	s.resident += e.bytes
	if s.resident > s.highWater {
		s.highWater = s.resident
	}
}

// removeLocked unlinks an entry from the map, the attr index, and the
// LRU list, and returns its bytes to the budget.
func (s *Store) removeLocked(e *entry) {
	delete(s.entries, e.k)
	for _, a := range e.footprint {
		if set := s.byAttr[a]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(s.byAttr, a)
			}
		}
	}
	s.lru.remove(e)
	s.resident -= e.bytes
}

// View is one request's handle on the store: the clock captured before
// the request loaded its snapshot. A View implements
// relstore.SharedStore. Views are cheap; create one per request.
type View struct {
	s     *Store
	clock uint64
}

// NewView captures the current clock for a request about to load the
// engine snapshot. ORDER MATTERS: the caller must create the view
// first and load the snapshot pointer after — that is what guarantees
// the view's validity checks are conservative (see package comment).
// The int64 argument is ignored; it remains only for callers that
// still pass one.
func (s *Store) NewView(int64) *View {
	s.mu.Lock()
	c := s.clock
	s.mu.Unlock()
	return &View{s: s, clock: c}
}

// validLocked reports whether a footprint is unbumped since the view's
// clock capture.
func (v *View) validLocked(footprint []relstore.Attr) bool {
	for _, a := range footprint {
		if v.s.lastBump[a] > v.clock {
			return false
		}
	}
	return true
}

// getLocked is the shared hit path: validity check, hit/miss counting,
// and the move to the front of the LRU list.
func (v *View) getLocked(k entryKey) (*entry, bool) {
	s := v.s
	e, ok := s.entries[k]
	if !ok || !v.validLocked(e.footprint) {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.remove(e)
	s.lru.pushFront(e)
	return e, true
}

// putLocked is the shared publish path: stale-put rejection, ghost
// admission, eviction from the LRU tail, and insert at the front. The
// caller sets the entry's key, footprint and payload.
func (v *View) putLocked(e *entry) {
	s := v.s
	if _, exists := s.entries[e.k]; exists {
		return // racing publisher won; both computed the same value
	}
	if !v.validLocked(e.footprint) {
		s.stalePutRejects++
		return
	}
	e.bytes = e.size()
	if e.bytes > s.budget {
		s.admissionRejects++
		return
	}
	// Ghost admission: remember the key, admit from minSeen observations.
	seen := int(s.seenCur[e.k]) + int(s.seenPrev[e.k]) + 1
	if seen < minSeen {
		if len(s.seenCur) >= ghostGenCap {
			s.seenPrev = s.seenCur
			s.seenCur = make(map[entryKey]uint8, ghostGenCap)
		}
		if s.seenCur[e.k] < 0xff {
			s.seenCur[e.k]++
		}
		s.admissionRejects++
		return
	}
	for s.resident+e.bytes > s.budget {
		s.removeLocked(s.lru.tail)
		s.evictions++
	}
	delete(s.seenCur, e.k)
	delete(s.seenPrev, e.k)
	s.insertLocked(e)
	s.lru.pushFront(e)
}

func selectionEntryKey(table string, col int, bag string) entryKey {
	return entryKey{kind: kindSelection, key: table + "\x01" + itoa(col) + "\x01" + bag}
}

// GetSelection implements relstore.SharedStore.
func (v *View) GetSelection(table string, col int, bag string) ([]int, bool) {
	k := selectionEntryKey(table, col, bag)
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	e, ok := v.getLocked(k)
	if !ok {
		return nil, false
	}
	return e.rows, true
}

// PutSelection implements relstore.SharedStore. The footprint is the
// selection attribute itself: the rows depend only on that column's
// values (or, for the membership pseudo-column, on the live-row set).
func (v *View) PutSelection(table string, col int, bag string, rows []int) {
	e := &entry{
		k:         selectionEntryKey(table, col, bag),
		footprint: []relstore.Attr{{Table: table, Col: col}},
		rows:      rows,
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.putLocked(e)
}

// GetPlan implements relstore.SharedStore.
func (v *View) GetPlan(key string) ([][]int, bool) {
	k := entryKey{kind: kindPlan, key: key}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	e, ok := v.getLocked(k)
	if !ok {
		return nil, false
	}
	return e.plan, true
}

// PutPlan implements relstore.SharedStore.
func (v *View) PutPlan(key string, footprint []relstore.Attr, rows [][]int) {
	e := &entry{
		k:         entryKey{kind: kindPlan, key: key},
		footprint: footprint,
		plan:      rows,
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.putLocked(e)
}

// GetCount implements relstore.SharedStore.
func (v *View) GetCount(key string) (int, bool) {
	k := entryKey{kind: kindCount, key: key}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	e, ok := v.getLocked(k)
	if !ok {
		return 0, false
	}
	return e.count, true
}

// PutCount implements relstore.SharedStore.
func (v *View) PutCount(key string, footprint []relstore.Attr, n int) {
	e := &entry{
		k:         entryKey{kind: kindCount, key: key},
		footprint: footprint,
		count:     n,
	}
	v.s.mu.Lock()
	defer v.s.mu.Unlock()
	v.putLocked(e)
}

// itoa renders a selection key's column; the membership pseudo-column
// is "*".
func itoa(v int) string {
	if v == relstore.MembershipCol {
		return "*"
	}
	return strconv.Itoa(v)
}
