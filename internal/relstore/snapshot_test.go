package relstore

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/durable"
)

// snapDB builds a small keyed database with churn so tombstones, gaps
// in the RowID space, and multi-token values are all present.
func snapDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("snaptest")
	actor, err := db.CreateTable(&TableSchema{
		Name:       "actor",
		Columns:    []Column{{Name: "id"}, {Name: "name", Indexed: true}},
		PrimaryKey: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:       "acts",
		Columns:    []Column{{Name: "actor_id"}, {Name: "role", Indexed: true}},
		PrimaryKey: "",
		ForeignKeys: []ForeignKey{
			{Column: "actor_id", RefTable: "actor", RefColumn: "id"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{
		{"a1", "Tom Hanks"}, {"a2", "Tom Cruise"}, {"a3", "Jack London"},
		{"a4", "Sky Stone Stone"},
	} {
		if _, err := actor.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	acts := db.Table("acts")
	for _, r := range [][]string{{"a1", "Viktor"}, {"a3", "Mitchel"}, {"a4", "Clerk Tom"}} {
		if _, err := acts.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	db.Prepare()
	// Tombstone two rows through the mutation path, so the snapshot must
	// carry dead slots and a RowID high-water mark above NumLive.
	ndb, _, err := db.Apply([]Mutation{
		{Op: OpDelete, Table: "actor", Key: "a2"},
		{Op: OpInsert, Table: "actor", Values: []string{"a5", "New London Face"}},
		{Op: OpDelete, Table: "actor", Key: "a3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ndb
}

func encodePhysical(t *testing.T, db *Database) []byte {
	t.Helper()
	var enc durable.Enc
	db.EncodeSnapshot(&enc, EncodeOptions{Physical: true, Postings: true})
	return append([]byte(nil), enc.Bytes()...)
}

func TestSnapshotPhysicalRoundTrip(t *testing.T) {
	db := snapDB(t)
	got, err := DecodeSnapshot(durable.NewDec(encodePhysical(t, db)))
	if err != nil {
		t.Fatal(err)
	}

	if got.Name != db.Name || !reflect.DeepEqual(got.TableNames(), db.TableNames()) {
		t.Fatalf("identity mismatch: %q %v", got.Name, got.TableNames())
	}
	for _, name := range db.TableNames() {
		ot, nt := db.Table(name), got.Table(name)
		if nt.Len() != ot.Len() || nt.NumLive() != ot.NumLive() || nt.NumDead() != ot.NumDead() {
			t.Fatalf("table %s physical shape: got (%d,%d,%d), want (%d,%d,%d)",
				name, nt.Len(), nt.NumLive(), nt.NumDead(), ot.Len(), ot.NumLive(), ot.NumDead())
		}
		for id := 0; id < ot.Len(); id++ {
			if ot.Live(id) != nt.Live(id) {
				t.Fatalf("table %s row %d liveness diverged", name, id)
			}
			// Tombstoned slots keep their values too (byte-stable resave).
			if !reflect.DeepEqual(ot.slot(id).Values, nt.slot(id).Values) {
				t.Fatalf("table %s row %d values diverged", name, id)
			}
		}
		// Selections agree on every single-token and duplicated bag.
		for _, kw := range [][]string{{"tom"}, {"london"}, {"stone", "stone"}, {"viktor"}, {"absent"}} {
			for _, col := range ot.Schema.TextColumns() {
				o := ot.SelectContains(col, kw)
				n := nt.SelectContains(col, kw)
				if !reflect.DeepEqual(SortedCopy(o), SortedCopy(n)) {
					t.Fatalf("table %s SelectContains(%s, %v): got %v, want %v", name, col, kw, n, o)
				}
			}
		}
	}
}

// TestColumnPostingsStatistics: the term statistics the inverted index
// reads from a column's postings equal direct counts over its live rows,
// on a churned database and on its decoded snapshot.
func TestColumnPostingsStatistics(t *testing.T) {
	db := snapDB(t)
	decoded, err := DecodeSnapshot(durable.NewDec(encodePhysical(t, db)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Database{db, decoded} {
		for _, tb := range d.Tables() {
			for _, col := range tb.Schema.TextColumns() {
				ci := tb.Schema.ColumnIndex(col)
				count, rows, tokens := map[string]int{}, map[string]int{}, 0
				for _, row := range tb.Rows() {
					toks := Tokenize(row.Values[ci])
					tokens += len(toks)
					seen := map[string]bool{}
					for _, tok := range toks {
						count[tok]++
						if !seen[tok] {
							seen[tok] = true
							rows[tok]++
						}
					}
				}
				cp := tb.Postings(col)
				if cp.Tokens() != tokens || cp.Vocabulary() != len(count) {
					t.Errorf("%s.%s: %d tokens, vocabulary %d; want %d, %d",
						tb.Schema.Name, col, cp.Tokens(), cp.Vocabulary(), tokens, len(count))
				}
				terms := slices.Collect(cp.Terms())
				if len(terms) != len(count) {
					t.Errorf("%s.%s: Terms has %d, want %d", tb.Schema.Name, col, len(terms), len(count))
				}
				for _, tok := range append(terms, "absent") {
					if c, r := cp.Term(tok); c != count[tok] || r != rows[tok] {
						t.Errorf("%s.%s: Term(%q) = %d, %d; want %d, %d", tb.Schema.Name, col, tok, c, r, count[tok], rows[tok])
					}
				}
			}
			if tb.Postings("no such column") != nil {
				t.Errorf("%s: postings of a missing column", tb.Schema.Name)
			}
		}
	}
}

// TestSnapshotByteStable asserts the two determinism contracts: the
// same database encodes identically twice (even after lazy index
// builds ran in between), and decode→encode reproduces the bytes.
func TestSnapshotByteStable(t *testing.T) {
	db := snapDB(t)
	first := encodePhysical(t, db)
	// Force extra lazy structures between the encodes.
	db.Table("actor").LookupEqual("name", "Tom Hanks")
	db.Table("acts").SelectContains("role", []string{"tom"})
	second := encodePhysical(t, db)
	if !bytes.Equal(first, second) {
		t.Fatal("same database encoded to different bytes across calls")
	}

	decoded, err := DecodeSnapshot(durable.NewDec(first))
	if err != nil {
		t.Fatal(err)
	}
	if reencoded := encodePhysical(t, decoded); !bytes.Equal(first, reencoded) {
		t.Fatal("decode→encode did not reproduce the snapshot bytes")
	}
}

// TestSnapshotWithoutPostings drops the posting-list payload: decode
// must rebuild them lazily and still answer identically.
func TestSnapshotWithoutPostings(t *testing.T) {
	db := snapDB(t)
	var enc durable.Enc
	db.EncodeSnapshot(&enc, EncodeOptions{Physical: true})
	got, err := DecodeSnapshot(durable.NewDec(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := db.Table("actor").SelectContains("name", []string{"tom"})
	if gotSel := got.Table("actor").SelectContains("name", []string{"tom"}); !reflect.DeepEqual(SortedCopy(gotSel), SortedCopy(want)) {
		t.Fatalf("lazy-rebuilt selection = %v, want %v", gotSel, want)
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	db := snapDB(t)
	raw := encodePhysical(t, db)
	for _, cut := range []int{1, len(raw) / 2, len(raw) - 1} {
		if _, err := DecodeSnapshot(durable.NewDec(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Forged posting lists: the inverted index reads its term statistics
	// from these lists, so a list that no build could produce is refused.
	// Row 1 of actor is tombstoned; "tom" lists row 0 ("Tom Hanks") once.
	for _, tc := range []struct {
		name  string
		forge func(pl *postingList)
	}{
		{"zero count", func(pl *postingList) { pl.counts[0] = 0 }},
		{"negative count", func(pl *postingList) { pl.counts[0] = -1 }},
		{"count past the value's length", func(pl *postingList) { pl.counts[0] = 6 }},
		{"count that overflows", func(pl *postingList) { pl.counts[0] = 1 << 62 }},
		{"empty list", func(pl *postingList) { pl.rows, pl.counts = nil, nil }},
		{"tombstoned row", func(pl *postingList) { pl.rows, pl.counts = []int{0, 1}, []int{1, 1} }},
	} {
		forged, err := DecodeSnapshot(durable.NewDec(raw))
		if err != nil {
			t.Fatal(err)
		}
		tc.forge(forged.Table("actor").postings[1].terms.Get("tom"))
		if _, err := DecodeSnapshot(durable.NewDec(encodePhysical(t, forged))); err == nil {
			t.Errorf("%s: forged posting list accepted", tc.name)
		}
	}
}

func TestSaveLoadLogicalDump(t *testing.T) {
	db := snapDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), buf.Bytes()...)

	got, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	// Logical dump: tombstones dropped, rows renumbered densely.
	if got.Table("actor").Len() != db.Table("actor").NumLive() {
		t.Fatalf("loaded actor has %d slots, want %d live", got.Table("actor").Len(), db.Table("actor").NumLive())
	}
	if got.Table("actor").NumDead() != 0 {
		t.Fatal("logical dump preserved tombstones")
	}
	// Values survive per live row, in physical order.
	var wantNames, gotNames []string
	for _, row := range db.Table("actor").Rows() {
		if db.Table("actor").Live(row.RowID) {
			wantNames = append(wantNames, row.Values[1])
		}
	}
	for _, row := range got.Table("actor").Rows() {
		gotNames = append(gotNames, row.Values[1])
	}
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("loaded names %v, want %v", gotNames, wantNames)
	}

	// Byte stability of the dump itself.
	var buf2 bytes.Buffer
	if err := db.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, buf2.Bytes()) {
		t.Fatal("Save is not byte-stable across calls")
	}
}

func TestCompactTables(t *testing.T) {
	db := snapDB(t)
	actor := db.Table("actor")
	if actor.NumDead() == 0 {
		t.Fatal("fixture has no tombstones")
	}
	wantSel := SortedCopy(actor.SelectContains("name", []string{"london"}))

	cdb := db.CompactTables([]string{"actor", "acts"})
	cactor := cdb.Table("actor")
	if cactor.NumDead() != 0 || cactor.Len() != actor.NumLive() {
		t.Fatalf("compacted actor: %d slots, %d dead", cactor.Len(), cactor.NumDead())
	}
	// acts had no tombstones: the table must be shared, not rebuilt.
	if cdb.Table("acts") != db.Table("acts") {
		t.Fatal("tombstone-free table was rebuilt")
	}
	// The receiver is untouched.
	if actor.NumDead() == 0 || db.Table("actor") == cactor {
		t.Fatal("CompactTables modified the receiver")
	}
	// Same live content under selection, just renumbered: compare values.
	var got []string
	for _, id := range cactor.SelectContains("name", []string{"london"}) {
		v, _ := cactor.Value(id, "name")
		got = append(got, v)
	}
	var want []string
	for _, id := range wantSel {
		v, _ := actor.Value(id, "name")
		want = append(want, v)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted selection values %v, want %v", got, want)
	}
	if r := cactor.DeadRatio(); r != 0 {
		t.Fatalf("DeadRatio after compaction = %v", r)
	}
}
