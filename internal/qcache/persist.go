package qcache

import (
	"fmt"

	"repro/internal/durable"
	"repro/internal/relstore"
)

// persistVersion guards the qcache snapshot-section layout. Version 2
// writes, per entry, kind, key, footprint and payload; version 1 also
// carried eviction-policy state and a byte size, which the single LRU
// list does not have or computes.
const persistVersion = 2

// persistVersionCold is the retired layout: DecodeSnapshot accepts it
// and starts cold rather than failing the engine open.
const persistVersionCold = 1

// EncodeSnapshot serialises the resident hot set for the engine's
// snapshot container. Entries are written MRU first, so decoding
// re-inserts them in recency order and the warm store behaves as if it
// had never restarted. The encoding is deterministic given the store
// state. Callers must guarantee the engine snapshot being persisted is
// the one the entries are valid for — in practice: call under the
// engine's apply lock, as Checkpoint does. Clock state is not
// persisted; a restored store starts at clock zero with every entry
// valid, which is exactly right because the snapshot file and the hot
// set were written consistently.
func (s *Store) EncodeSnapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var enc durable.Enc
	enc.Byte(persistVersion)
	enc.Uvarint(uint64(len(s.entries)))
	for e := s.lru.head; e != nil; e = e.next {
		enc.Byte(e.k.kind)
		enc.String(e.k.key)
		enc.Uvarint(uint64(len(e.footprint)))
		for _, a := range e.footprint {
			enc.String(a.Table)
			enc.Int(a.Col)
		}
		switch e.k.kind {
		case kindSelection:
			enc.Ints(e.rows)
		case kindPlan:
			enc.Uvarint(uint64(len(e.plan)))
			for _, r := range e.plan {
				enc.Ints(r)
			}
		case kindCount:
			enc.Int(e.count)
		}
	}
	return enc.Bytes()
}

// DecodeSnapshot restores a persisted hot set into a freshly created
// store. Entries are admitted without the ghost gate — they earned
// admission in the previous process — but still respect the byte
// budget, each entry charged its computed size: once the budget is full
// (it may be smaller than the one the snapshot was written under), the
// remaining colder entries are dropped. The restored resident size
// seeds the high-water mark. A section in the retired version-1 layout
// leaves the store empty: it is a cache, so starting cold cannot change
// a response.
func (s *Store) DecodeSnapshot(payload []byte) error {
	dec := durable.NewDec(payload)
	switch v := dec.Byte(); {
	case dec.Err() != nil:
		return fmt.Errorf("qcache: decode snapshot: %w", dec.Err())
	case v == persistVersionCold:
		return nil
	case v != persistVersion:
		return fmt.Errorf("qcache: unsupported snapshot version %d", v)
	}
	n, err := declared(dec, "entries")
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := uint64(0); i < n; i++ {
		kind := dec.Byte()
		key := dec.String()
		fpLen, err := declared(dec, "footprint attributes")
		if err != nil {
			return err
		}
		var fp []relstore.Attr
		for j := uint64(0); j < fpLen && dec.Err() == nil; j++ {
			table := dec.String()
			col := dec.Int()
			fp = append(fp, relstore.Attr{Table: table, Col: col})
		}
		e := &entry{k: entryKey{kind: kind, key: key}, footprint: fp}
		switch kind {
		case kindSelection:
			e.rows = dec.Ints()
		case kindPlan:
			rows, err := declared(dec, "plan rows")
			if err != nil {
				return err
			}
			e.plan = make([][]int, 0, rows)
			for j := uint64(0); j < rows && dec.Err() == nil; j++ {
				e.plan = append(e.plan, dec.Ints())
			}
		case kindCount:
			e.count = dec.Int()
		default:
			return fmt.Errorf("qcache: unknown entry kind %q", kind)
		}
		if dec.Err() != nil {
			return fmt.Errorf("qcache: decode snapshot: %w", dec.Err())
		}
		e.bytes = e.size()
		if _, dup := s.entries[e.k]; dup || s.resident+e.bytes > s.budget {
			continue // colder than what already fits
		}
		s.insertLocked(e)
		s.lru.pushBack(e)
	}
	return nil
}

// declared reads a collection length and fails when the remaining input
// cannot hold that many elements (each takes at least one byte), so a
// forged count can neither size an allocation nor drive a loop past the
// end of the payload.
func declared(dec *durable.Dec, what string) (uint64, error) {
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return 0, fmt.Errorf("qcache: decode snapshot: %w", err)
	}
	if n > uint64(dec.Remaining()) {
		return 0, fmt.Errorf("qcache: decode snapshot: %d %s declared, %d bytes left", n, what, dec.Remaining())
	}
	return n, nil
}

// pushBack appends at the cold end; used only by snapshot restore,
// which replays entries warmest-first.
func (l *lruList) pushBack(e *entry) {
	e.next = nil
	e.prev = l.tail
	if l.tail != nil {
		l.tail.next = e
	}
	l.tail = e
	if l.head == nil {
		l.head = e
	}
}
