package admission

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock: the governor tests drive window
// rotation without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestGovernorRotatesOnClock: completions within a window accumulate;
// the completion that crosses the boundary rotates the window into
// the controller and resizes the gate.
func TestGovernorRotatesOnClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	ctrl := NewController(Config{MinLimit: 2, MaxLimit: 64})
	gate := NewGate(GateConfig{Limit: 99, MaxQueue: 4})
	gov := NewGovernor(ctrl, gate, time.Second, clk.now)

	// Construction aligns the gate to the controller's initial limit.
	if gate.Limit() != 2 {
		t.Fatalf("gate limit = %d, want controller initial 2", gate.Limit())
	}

	// A healthy window: 20 completions at 5ms, then cross the boundary.
	for i := 0; i < 20; i++ {
		gov.ObserveCompletion(5 * time.Millisecond)
	}
	if st := gov.State(); st.Windows != 0 {
		t.Fatalf("window rotated early: %+v", st)
	}
	clk.advance(1100 * time.Millisecond)
	gov.ObserveCompletion(5 * time.Millisecond)

	st := gov.State()
	if st.Windows != 1 || st.Increases != 1 {
		t.Fatalf("after first rotation: %+v", st)
	}
	if gov.Limit() != 3 || gate.Limit() != 3 {
		t.Fatalf("limits after healthy window: governor %d gate %d, want 3",
			gov.Limit(), gate.Limit())
	}

	// A degraded window backs off and shrinks the gate: 19 slow
	// completions inside the window, the 20th crosses the boundary.
	for i := 0; i < 19; i++ {
		gov.ObserveCompletion(100 * time.Millisecond)
	}
	clk.advance(1100 * time.Millisecond)
	gov.ObserveCompletion(100 * time.Millisecond)
	st = gov.State()
	if st.Windows != 2 || st.Backoffs != 1 {
		t.Fatalf("after degraded window: %+v", st)
	}
	if gate.Limit() != gov.Limit() {
		t.Fatalf("gate limit %d drifted from governor %d", gate.Limit(), gov.Limit())
	}
}

// TestGovernorSparseWindowHolds: a boundary crossing with too few
// samples leaves the limit alone.
func TestGovernorSparseWindowHolds(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	ctrl := NewController(Config{MinLimit: 8, MaxLimit: 64})
	gov := NewGovernor(ctrl, nil, time.Second, clk.now)

	clk.advance(2 * time.Second)
	gov.ObserveCompletion(time.Second) // 1 completion < minSamples
	if st := gov.State(); st.Windows != 1 || st.Holds != 1 || gov.Limit() != 8 {
		t.Fatalf("sparse window: %+v limit %d", st, gov.Limit())
	}
}

// TestGovernorServiceEWMA: the drain-rate meter tracks service time
// and feeds RetryAfter.
func TestGovernorServiceEWMA(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	gov := NewGovernor(NewController(Config{}), nil, time.Second, clk.now)

	if gov.AvgService() != 0 {
		t.Fatal("avg service non-zero before any completion")
	}
	gov.ObserveCompletion(100 * time.Millisecond)
	if got := gov.AvgService(); got != 100*time.Millisecond {
		t.Fatalf("first sample seeds EWMA: got %v", got)
	}
	for i := 0; i < 200; i++ {
		gov.ObserveCompletion(10 * time.Millisecond)
	}
	got := gov.AvgService()
	if got < 9*time.Millisecond || got > 15*time.Millisecond {
		t.Fatalf("EWMA did not converge to new service time: %v", got)
	}
}
