package qcache

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/relstore"
)

func attr(table string, col int) relstore.Attr { return relstore.Attr{Table: table, Col: col} }

// admitSelection drives a selection through the 2Q gate: the first Put
// only records the ghost entry, the second admits.
func admitSelection(v *View, table string, col int, bag string, rows []int) {
	v.PutSelection(table, col, bag, rows)
	v.PutSelection(table, col, bag, rows)
}

func TestAdmissionNeedsSecondObservation(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	v.PutSelection("actor", 1, "hanks", []int{1, 2, 3})
	if st := s.Stats(); st.Entries != 0 || st.AdmissionRejects != 1 {
		t.Fatalf("first Put should only leave a ghost: %+v", st)
	}
	if _, ok := v.GetSelection("actor", 1, "hanks"); ok {
		t.Fatal("unadmitted entry served")
	}
	v.PutSelection("actor", 1, "hanks", []int{1, 2, 3})
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("second Put should admit: %+v", st)
	}
	rows, ok := v.GetSelection("actor", 1, "hanks")
	if !ok || len(rows) != 3 || rows[0] != 1 {
		t.Fatalf("GetSelection = %v, %v", rows, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counters: %+v", st)
	}
	if st.ResidentBytes <= 0 || st.HighWaterBytes != st.ResidentBytes {
		t.Fatalf("byte accounting: %+v", st)
	}
}

func TestPlanAndCountNamespaces(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	fp := []relstore.Attr{attr("actor", 1), attr("movie", relstore.MembershipCol)}
	plan := [][]int{{1, 2}, {3, 4}}
	v.PutPlan("k", fp, plan)
	v.PutPlan("k", fp, plan)
	v.PutCount("k", fp, 7)
	v.PutCount("k", fp, 7)
	got, ok := v.GetPlan("k")
	if !ok || len(got) != 2 || got[1][0] != 3 {
		t.Fatalf("GetPlan = %v, %v", got, ok)
	}
	n, ok := v.GetCount("k")
	if !ok || n != 7 {
		t.Fatalf("GetCount = %d, %v", n, ok)
	}
	// Same key string, different namespaces: both resident.
	if st := s.Stats(); st.Entries != 2 {
		t.Fatalf("expected 2 entries, got %+v", st)
	}
}

func TestExistingEntryWinsRacingPut(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	admitSelection(v, "actor", 1, "hanks", []int{1})
	// A racing publisher of the same (deterministic) value must not
	// disturb the resident entry.
	v.PutSelection("actor", 1, "hanks", []int{1})
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("duplicate Put changed the store: %+v", st)
	}
}

func TestInvalidateDropsOnlyIntersecting(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	admitSelection(v, "actor", 1, "hanks", []int{1})
	admitSelection(v, "actor", 2, "drama", []int{2})
	admitSelection(v, "movie", 1, "terminal", []int{3})
	published := false
	s.Invalidate([]relstore.Attr{attr("actor", 1)}, func() { published = true })
	if !published {
		t.Fatal("publish callback not invoked")
	}
	st := s.Stats()
	if st.Entries != 2 || st.Invalidations != 1 {
		t.Fatalf("expected only actor.1 dropped: %+v", st)
	}
	v2 := s.NewView(10)
	if _, ok := v2.GetSelection("actor", 1, "hanks"); ok {
		t.Fatal("invalidated entry served")
	}
	if _, ok := v2.GetSelection("actor", 2, "drama"); !ok {
		t.Fatal("surviving entry not served")
	}
	if _, ok := v2.GetSelection("movie", 1, "terminal"); !ok {
		t.Fatal("surviving entry not served")
	}
}

func TestOldViewRejectedAfterInvalidation(t *testing.T) {
	s := New(1 << 20)
	old := s.NewView(10)
	s.Invalidate([]relstore.Attr{attr("actor", 1)}, nil)
	fresh := s.NewView(10)
	admitSelection(fresh, "actor", 1, "hanks", []int{1})
	// The old view predates the bump: it may still be reading the
	// pre-batch snapshot, so the post-batch entry must not be served...
	if _, ok := old.GetSelection("actor", 1, "hanks"); ok {
		t.Fatal("entry published after the old view's clock was served to it")
	}
	// ...and its own computation must not be published.
	old.PutSelection("actor", 1, "stale", []int{9})
	old.PutSelection("actor", 1, "stale", []int{9})
	if st := s.Stats(); st.StalePutRejects != 2 {
		t.Fatalf("stale puts accepted: %+v", st)
	}
	if _, ok := fresh.GetSelection("actor", 1, "stale"); ok {
		t.Fatal("stale entry resident")
	}
	// Attributes untouched by the batch stay usable from the old view.
	admitSelection(fresh, "movie", 1, "terminal", []int{3})
	if _, ok := old.GetSelection("movie", 1, "terminal"); !ok {
		t.Fatal("old view rejected an untouched attribute")
	}
}

func TestEvictionIsLeastRecentlyUsed(t *testing.T) {
	rows := make([]int, 100)
	one := &entry{k: selectionEntryKey("t", 0, "bag"), rows: rows}
	s := New(3 * one.size()) // exactly three entries fit
	v := s.NewView(0)
	for i := 0; i < 3; i++ {
		admitSelection(v, "t", i, "bag", rows)
	}
	if st := s.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("setup: %+v", st)
	}
	v.GetSelection("t", 0, "bag") // the oldest becomes the most recent
	v.PutSelection("t", 3, "bag", rows)
	pre := s.Stats()
	v.PutSelection("t", 3, "bag", rows) // admitted: must evict t.1
	st := s.Stats()
	if st.Evictions != pre.Evictions+1 || st.AdmissionRejects != pre.AdmissionRejects {
		t.Fatalf("admission did not evict exactly one entry: %+v -> %+v", pre, st)
	}
	for col, want := range []bool{true, false, true, true} {
		if _, ok := v.GetSelection("t", col, "bag"); ok != want {
			t.Errorf("t.%d resident = %v, want %v", col, ok, want)
		}
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	s := New(256)
	v := s.NewView(10)
	admitSelection(v, "t", 1, "big", make([]int, 1000))
	st := s.Stats()
	if st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("oversized entry admitted: %+v", st)
	}
}

func TestBudgetIsAHardCeiling(t *testing.T) {
	const budget = 8192
	s := New(budget)
	v := s.NewView(10)
	for i := 0; i < 200; i++ {
		rows := make([]int, 10+i%50)
		admitSelection(v, "t", i, "bag", rows)
		st := s.Stats()
		if st.ResidentBytes > budget || st.HighWaterBytes > budget {
			t.Fatalf("budget exceeded at %d: %+v", i, st)
		}
	}
	if st := s.Stats(); st.Entries == 0 || st.Evictions == 0 {
		t.Fatalf("expected churn under pressure: %+v", st)
	}
}

func TestGhostRotationForgetsAncientKeys(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	v.PutSelection("t", 0, "target", []int{1}) // ghost in generation 0
	// Flood two full generations of distinct keys: the target's ghost
	// rotates out entirely.
	for i := 0; i < 2*ghostGenCap+1; i++ {
		v.PutSelection("t", 1, fmt.Sprintf("junk%d", i), []int{1})
	}
	v.PutSelection("t", 0, "target", []int{1})
	if _, ok := v.GetSelection("t", 0, "target"); ok {
		t.Fatal("forgotten ghost still counted toward admission")
	}
	// But a ghost only one rotation old still admits.
	v.PutSelection("t", 0, "recent", []int{1})
	for i := 0; i < ghostGenCap; i++ {
		v.PutSelection("t", 1, fmt.Sprintf("junk2-%d", i), []int{1})
	}
	v.PutSelection("t", 0, "recent", []int{1})
	if _, ok := v.GetSelection("t", 0, "recent"); !ok {
		t.Fatal("previous-generation ghost not counted toward admission")
	}
}

func TestPersistRoundtrip(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(42)
	admitSelection(v, "actor", 1, "hanks", []int{1, 2, 3})
	fp := []relstore.Attr{attr("actor", 1), attr("movie", relstore.MembershipCol)}
	v.PutPlan("pk", fp, [][]int{{1, 2}, {3}})
	v.PutPlan("pk", fp, [][]int{{1, 2}, {3}})
	v.PutCount("ck", fp, 9)
	v.PutCount("ck", fp, 9)
	v.GetSelection("actor", 1, "hanks") // most recently used

	payload := s.EncodeSnapshot()
	if string(payload) != string(s.EncodeSnapshot()) {
		t.Fatal("encoding is not deterministic")
	}
	before := s.Stats()

	r := New(1 << 20)
	if err := r.DecodeSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.Entries != before.Entries || after.ResidentBytes != before.ResidentBytes {
		t.Fatalf("restore drifted: %+v vs %+v", after, before)
	}
	// Recency survives the restart: the hit selection is still the most
	// recent entry, the plan admitted before the count the least.
	if string(r.EncodeSnapshot()) != string(payload) {
		t.Fatal("re-encoding the restored store changed the snapshot")
	}
	if r.lru.head.k.kind != kindSelection || r.lru.tail.k != (entryKey{kind: kindPlan, key: "pk"}) {
		t.Fatalf("restored recency order: head %+v, tail %+v", r.lru.head.k, r.lru.tail.k)
	}
	rv := r.NewView(1)
	if rows, ok := rv.GetSelection("actor", 1, "hanks"); !ok || len(rows) != 3 {
		t.Fatalf("restored selection: %v, %v", rows, ok)
	}
	if plan, ok := rv.GetPlan("pk"); !ok || len(plan) != 2 || plan[0][1] != 2 {
		t.Fatalf("restored plan: %v, %v", plan, ok)
	}
	if n, ok := rv.GetCount("ck"); !ok || n != 9 {
		t.Fatalf("restored count: %d, %v", n, ok)
	}
	// Restored entries still carry their footprints: invalidation works.
	r.Invalidate([]relstore.Attr{attr("movie", relstore.MembershipCol)}, nil)
	rv2 := r.NewView(1)
	if _, ok := rv2.GetPlan("pk"); ok {
		t.Fatal("restored plan survived invalidation of its footprint")
	}
	if _, ok := rv2.GetCount("ck"); ok {
		t.Fatal("restored count survived invalidation of its footprint")
	}
	if _, ok := rv2.GetSelection("actor", 1, "hanks"); !ok {
		t.Fatal("unrelated restored entry dropped")
	}
}

func TestDecodeClampsToSmallerBudget(t *testing.T) {
	s := New(1 << 20)
	v := s.NewView(10)
	for i := 0; i < 8; i++ {
		admitSelection(v, "t", i, "bag", make([]int, 64))
	}
	payload := s.EncodeSnapshot()
	small := New(s.Stats().ResidentBytes / 2)
	if err := small.DecodeSnapshot(payload); err != nil {
		t.Fatal(err)
	}
	st := small.Stats()
	if st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("restore exceeded budget: %+v", st)
	}
	if st.Entries == 0 || st.Entries == 8 {
		t.Fatalf("expected a partial restore: %+v", st)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	r := New(1024)
	if err := r.DecodeSnapshot([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("garbage decoded")
	}
	if err := r.DecodeSnapshot(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
}

func TestDecodeOldVersionStartsCold(t *testing.T) {
	// A version-1 section as the segmented-LRU build wrote it: segment
	// flag, kind, key, footprint, payload, eviction weight, hit count,
	// byte size.
	var enc durable.Enc
	enc.Byte(1)
	enc.Uvarint(1)
	enc.Bool(true)
	enc.Byte(kindCount)
	enc.String("ck")
	enc.Uvarint(1)
	enc.String("movie")
	enc.Int(1)
	enc.Int(9)
	enc.Float(42)
	enc.Uvarint(3)
	enc.Uvarint(130)
	r := New(1 << 20)
	if err := r.DecodeSnapshot(enc.Bytes()); err != nil {
		t.Fatalf("version-1 section: %v", err)
	}
	if st := r.Stats(); st.Entries != 0 || st.ResidentBytes != 0 {
		t.Fatalf("version-1 section restored entries: %+v", st)
	}
	if err := r.DecodeSnapshot([]byte{3, 0}); err == nil {
		t.Fatal("version-3 section decoded")
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{relstore.MembershipCol: "*", 0: "0", 7: "7", 12: "12", 123: "123"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

// forgedCountPayloads are well-formed section prefixes whose declared
// counts far exceed their length: a plan entry declaring 2^62 rows, and
// a selection entry declaring a footprint of five million attributes.
// Unchecked, the first sizes a slice the runtime refuses and the second
// runs five million decode iterations into a growing footprint.
func forgedCountPayloads() [][]byte {
	var rows durable.Enc
	rows.Byte(persistVersion)
	rows.Uvarint(1)
	rows.Byte(kindPlan)
	rows.String("")
	rows.Uvarint(0)
	rows.Uvarint(1 << 62)
	var fp durable.Enc
	fp.Byte(persistVersion)
	fp.Uvarint(1)
	fp.Byte(kindSelection)
	fp.String("")
	fp.Uvarint(5_000_000)
	return [][]byte{rows.Bytes(), fp.Bytes()}
}

func TestDecodeRejectsForgedCounts(t *testing.T) {
	for i, payload := range forgedCountPayloads() {
		r := New(1 << 20)
		if err := r.DecodeSnapshot(payload); err == nil {
			t.Fatalf("forged payload %d (% x) decoded", i, payload)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.DecodeSnapshot(payload)
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 64<<10 {
			t.Fatalf("forged payload %d: decoding allocated %d bytes", i, b)
		}
	}
}

// FuzzDecodeSnapshot: no section payload panics the decoder or
// overfills the budget, and whatever it accepts re-encodes to a payload
// that decodes back to itself.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, p := range forgedCountPayloads() {
		f.Add(p)
	}
	s := New(1 << 20)
	v := s.NewView(1)
	admitSelection(v, "actor", 1, "hanks", []int{1, 2, 3})
	fp := []relstore.Attr{attr("actor", 1), attr("movie", relstore.MembershipCol)}
	v.PutPlan("pk", fp, [][]int{{1, 2}, {3}})
	v.PutPlan("pk", fp, [][]int{{1, 2}, {3}})
	v.PutCount("ck", fp, 9)
	v.PutCount("ck", fp, 9)
	f.Add(s.EncodeSnapshot())
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := New(4096)
		if err := r.DecodeSnapshot(payload); err != nil {
			return
		}
		if st := r.Stats(); st.ResidentBytes > st.BudgetBytes {
			t.Fatalf("restore exceeded budget: %+v", st)
		}
		again := r.EncodeSnapshot()
		r2 := New(4096)
		if err := r2.DecodeSnapshot(again); err != nil {
			t.Fatalf("re-encoded store does not decode: %v", err)
		}
		if string(r2.EncodeSnapshot()) != string(again) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
