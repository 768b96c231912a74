package admission

import (
	"testing"
	"time"
)

// synthSource models a serving stack with a known concurrency knee:
// p99 is flat at base while the limit is at or below the knee, and
// grows linearly (steeply, slope per knee-width) beyond it. This is
// the synthetic latency source the rig drives the controller with —
// no clocks, no sleeping, pure arithmetic.
type synthSource struct {
	base  time.Duration
	knee  int
	slope float64
}

func (s synthSource) p99(limit int) time.Duration {
	if limit <= s.knee {
		return s.base
	}
	excess := float64(limit-s.knee) / float64(s.knee)
	return time.Duration(float64(s.base) * (1 + s.slope*excess))
}

func (s synthSource) window(limit int) Window {
	return Window{Completed: 50, P99: s.p99(limit)}
}

func testSource() synthSource {
	return synthSource{base: 5 * time.Millisecond, knee: 24, slope: 4}
}

func testConfig() Config {
	return Config{MinLimit: 2, MaxLimit: 128}
}

// drive feeds n windows of the synthetic source into the controller
// and returns the limit trace (one entry per window, post-decision).
func drive(c *Controller, src synthSource, n int) []int {
	trace := make([]int, n)
	for i := range trace {
		c.Observe(src.window(c.Limit()))
		trace[i] = c.Limit()
	}
	return trace
}

// TestConvergesToKnee is the headline rig assertion: starting from the
// floor, the governor must find the synthetic knee within a bounded
// number of windows and then stay within ±25% of it — the sawtooth is
// allowed, drifting off is not.
func TestConvergesToKnee(t *testing.T) {
	src := testSource()
	c := NewController(testConfig())

	const total, settle = 240, 80
	trace := drive(c, src, total)

	lo := int(float64(src.knee) * 0.75)
	hi := int(float64(src.knee)*1.25) + 1
	for i := settle; i < total; i++ {
		if trace[i] < lo || trace[i] > hi {
			t.Fatalf("window %d: limit %d outside ±25%% knee band [%d, %d]\ntrace tail: %v",
				i, trace[i], lo, hi, trace[max(0, i-10):i+1])
		}
	}

	var sum float64
	for _, l := range trace[settle:] {
		sum += float64(l)
	}
	mean := sum / float64(total-settle)
	if mean < 0.75*float64(src.knee) || mean > 1.25*float64(src.knee) {
		t.Fatalf("settled mean limit %.1f not within ±25%% of knee %d", mean, src.knee)
	}
}

// TestBoundedOscillation pins the sawtooth amplitude after
// convergence: peak-to-trough must stay under 40% of the knee (the
// additive step plus one multiplicative cut), not grow without bound.
func TestBoundedOscillation(t *testing.T) {
	src := testSource()
	c := NewController(testConfig())

	trace := drive(c, src, 240)
	settled := trace[80:]
	minL, maxL := settled[0], settled[0]
	for _, l := range settled {
		minL = min(minL, l)
		maxL = max(maxL, l)
	}
	if spread := maxL - minL; spread > int(0.4*float64(src.knee))+1 {
		t.Fatalf("oscillation spread %d (limits %d..%d) exceeds 40%% of knee %d",
			spread, minL, maxL, src.knee)
	}
}

// TestBacksOffWithinOneWindow injects a latency spike into a
// converged controller and requires a multiplicative cut on the very
// next observed window.
func TestBacksOffWithinOneWindow(t *testing.T) {
	src := testSource()
	c := NewController(testConfig())

	// Converge, then advance until the controller just increased so
	// the spike does not land inside a post-backoff cooldown hold.
	drive(c, src, 120)
	for i := 0; c.Observe(src.window(c.Limit())) != Increase; i++ {
		if i > 20 {
			t.Fatal("controller never increased after convergence")
		}
	}

	before := c.Limit()
	d := c.Observe(Window{Completed: 50, P99: 10 * src.base})
	if d != Backoff {
		t.Fatalf("spike window decision = %v, want Backoff", d)
	}
	want := int(float64(before) * backoffFactor)
	if want < c.Config().MinLimit {
		want = c.Config().MinLimit
	}
	if c.Limit() != want {
		t.Fatalf("post-spike limit = %d, want multiplicative cut %d of %d", c.Limit(), want, before)
	}
}

// TestMonotoneBackoffUnderSustainedSpike holds the spike for many
// windows: the limit must decrease monotonically to the floor and
// never dip below it, and every cut must be multiplicative.
func TestMonotoneBackoffUnderSustainedSpike(t *testing.T) {
	src := testSource()
	cfg := testConfig()
	c := NewController(cfg)
	drive(c, src, 120)

	spike := Window{Completed: 50, P99: 20 * src.base}
	prev := c.Limit()
	for i := 0; i < 40; i++ {
		d := c.Observe(spike)
		l := c.Limit()
		if l > prev {
			t.Fatalf("spike window %d: limit rose %d -> %d", i, prev, l)
		}
		if d == Backoff {
			want := int(float64(prev) * backoffFactor)
			if want < cfg.MinLimit {
				want = cfg.MinLimit
			}
			if l != want {
				t.Fatalf("spike window %d: cut %d -> %d, want %d", i, prev, l, want)
			}
		}
		if l < cfg.MinLimit {
			t.Fatalf("spike window %d: limit %d below floor %d", i, l, cfg.MinLimit)
		}
		prev = l
	}
	if c.Limit() != cfg.MinLimit {
		t.Fatalf("sustained spike: limit %d never reached floor %d", c.Limit(), cfg.MinLimit)
	}
}

// TestRecoversAfterSpike ends the spike and requires the controller
// to climb back into the knee band — the reference latency must not
// have been poisoned by the degraded windows.
func TestRecoversAfterSpike(t *testing.T) {
	src := testSource()
	c := NewController(testConfig())
	drive(c, src, 120)
	for i := 0; i < 16; i++ {
		c.Observe(Window{Completed: 50, P99: 20 * src.base})
	}
	if c.Limit() != c.Config().MinLimit {
		t.Fatalf("setup: expected floor after sustained spike, got %d", c.Limit())
	}

	trace := drive(c, src, 60)
	final := trace[len(trace)-1]
	if final < int(0.75*float64(src.knee)) {
		t.Fatalf("no recovery: limit %d after 60 healthy windows, knee %d\ntrace: %v",
			final, src.knee, trace)
	}
}

// TestSparseWindowHolds: a window with too few completions must not
// move the limit, no matter how bad its p99 looks.
func TestSparseWindowHolds(t *testing.T) {
	c := NewController(testConfig())
	drive(c, testSource(), 40)
	before := c.Limit()
	d := c.Observe(Window{Completed: 2, P99: time.Minute})
	if d != Hold || c.Limit() != before {
		t.Fatalf("sparse window: decision %v limit %d, want Hold at %d", d, c.Limit(), before)
	}
}

// TestCeilingHolds: with the knee above the ceiling, the controller
// parks at MaxLimit and reports Hold, never exceeding the bound.
func TestCeilingHolds(t *testing.T) {
	src := synthSource{base: 5 * time.Millisecond, knee: 1000, slope: 4}
	cfg := Config{MinLimit: 2, MaxLimit: 16}
	c := NewController(cfg)
	trace := drive(c, src, 40)
	for i, l := range trace {
		if l > cfg.MaxLimit {
			t.Fatalf("window %d: limit %d above ceiling %d", i, l, cfg.MaxLimit)
		}
	}
	if c.Limit() != cfg.MaxLimit {
		t.Fatalf("limit %d, want parked at ceiling %d", c.Limit(), cfg.MaxLimit)
	}
	if d := c.Observe(src.window(c.Limit())); d != Hold {
		t.Fatalf("at ceiling: decision %v, want Hold", d)
	}
}

// TestDefaultsAndState covers configuration defaulting and the
// exported state snapshot.
func TestDefaultsAndState(t *testing.T) {
	c := NewController(Config{})
	cfg := c.Config()
	if cfg.MinLimit != 1 || cfg.MaxLimit != 1024 {
		t.Fatalf("unexpected defaulted bounds: %+v", cfg)
	}
	if c.Limit() != 1 {
		t.Fatalf("initial limit = %d, want the floor 1", c.Limit())
	}

	c.Observe(Window{Completed: 50, P99: 10 * time.Millisecond})
	st := c.State()
	if st.Windows != 1 || st.Increases != 1 || st.Limit != 1+increaseStep {
		t.Fatalf("state after one healthy window: %+v", st)
	}
	if st.RefP99MS <= 0 {
		t.Fatalf("reference p99 not seeded: %+v", st)
	}

	// Invalid bounds are reconciled, not crashed on.
	c2 := NewController(Config{MinLimit: 8, MaxLimit: 4})
	if c2.Config().MaxLimit != 8 || c2.Limit() != 8 {
		t.Fatalf("bound reconciliation: %+v limit %d", c2.Config(), c2.Limit())
	}
}

// TestDecisionString pins the human-readable decision labels used in
// logs.
func TestDecisionString(t *testing.T) {
	if Hold.String() != "hold" || Increase.String() != "increase" || Backoff.String() != "backoff" {
		t.Fatal("decision labels drifted")
	}
}
