// Package admission implements a self-tuning admission governor for
// the serving path: an AIMD (additive-increase / multiplicative-
// decrease) controller that discovers the concurrency knee online from
// windowed latency observations, a resizable cost-banded gate that
// sheds the estimated-heaviest waiters first under queue pressure, and
// a drain-rate-scaled Retry-After estimator.
//
// The package is deliberately free of wall-clock reads in the control
// math: the controller consumes pre-aggregated windows, and the
// Governor that feeds it takes an injectable `now` function, so the
// whole control loop is drivable from a simulated clock in tests.
package admission

import "time"

// Config bounds the AIMD controller. The limit starts at MinLimit
// (start conservative, probe upward) and never leaves [MinLimit,
// MaxLimit]; the loop's tuning is fixed (see the constants below).
type Config struct {
	// MinLimit is the concurrency floor: back-off never goes below
	// it. Defaults to 1.
	MinLimit int
	// MaxLimit is the concurrency ceiling: additive increase never
	// exceeds it. Defaults to 1024; raised to MinLimit if below it.
	MaxLimit int
}

// The AIMD loop's tuning.
const (
	// increaseStep is the additive step applied after a healthy window.
	increaseStep = 1
	// backoffFactor is the multiplicative cut applied to the limit when
	// a window degrades — gentler than TCP's 0.5, keeping the sawtooth
	// inside a ±25% band around the knee.
	backoffFactor = 0.75
	// degradeThreshold is the latency gradient that marks a window
	// degraded: p99 > ref * (1+degradeThreshold).
	degradeThreshold = 0.3
	// minSamples is the fewest completions a window needs before its
	// p99 is trusted; sparser windows hold the limit.
	minSamples = 8
	// refDecay is the EWMA weight a healthy window's p99 contributes to
	// the reference latency.
	refDecay = 0.2
	// cooldownWindows is how many windows to hold after a back-off so
	// the reduced limit can show its effect before being judged.
	cooldownWindows = 1
)

func (c Config) withDefaults() Config {
	if c.MinLimit <= 0 {
		c.MinLimit = 1
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 1024
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	return c
}

// Window is one aggregated observation interval handed to the
// controller: how many requests completed and the p99 service latency
// over that interval. Goodput enters the loop as the sample gate —
// windows with fewer than minSamples completions carry too little
// signal and hold the limit rather than moving it.
type Window struct {
	Completed int
	P99       time.Duration
}

// Decision is the controller's verdict on one window.
type Decision int

const (
	// Hold leaves the limit unchanged (sparse window, cooldown, or
	// already at the ceiling).
	Hold Decision = iota
	// Increase raised the limit additively after a healthy window.
	Increase
	// Backoff cut the limit multiplicatively after a degraded window.
	Backoff
)

func (d Decision) String() string {
	switch d {
	case Increase:
		return "increase"
	case Backoff:
		return "backoff"
	default:
		return "hold"
	}
}

// Controller is the pure AIMD loop: feed it windows, read the limit.
// It performs no locking and reads no clock — callers own both.
type Controller struct {
	cfg   Config
	limit int
	// ref is the EWMA reference p99 in nanoseconds, seeded from the
	// first adequately-sampled window and updated only by healthy
	// windows so a sustained degradation cannot drag the baseline up
	// and mask itself.
	ref  float64
	cool int

	windows   int64
	increases int64
	backoffs  int64
	holds     int64
}

// NewController builds a controller with defaults applied and the
// limit at MinLimit.
func NewController(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, limit: cfg.MinLimit}
}

// Limit returns the current concurrency limit.
func (c *Controller) Limit() int { return c.limit }

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Observe feeds one completed window into the loop and returns the
// decision taken. The limit after the call is Limit().
func (c *Controller) Observe(w Window) Decision {
	c.windows++
	if w.Completed < minSamples {
		c.holds++
		return Hold
	}
	if c.cool > 0 {
		// A back-off just happened; the windows observed since were
		// (partly) produced under the old, too-high limit. Hold until
		// the cut has had a full window to show its effect.
		c.cool--
		c.holds++
		return Hold
	}
	p99 := float64(w.P99)
	if c.ref == 0 {
		c.ref = p99
	}
	if p99 <= c.ref*(1+degradeThreshold) {
		c.ref = (1-refDecay)*c.ref + refDecay*p99
		if c.limit < c.cfg.MaxLimit {
			c.limit += increaseStep
			if c.limit > c.cfg.MaxLimit {
				c.limit = c.cfg.MaxLimit
			}
			c.increases++
			return Increase
		}
		c.holds++
		return Hold
	}
	next := int(float64(c.limit) * backoffFactor)
	if next >= c.limit {
		next = c.limit - 1
	}
	if next < c.cfg.MinLimit {
		next = c.cfg.MinLimit
	}
	c.limit = next
	c.cool = cooldownWindows
	c.backoffs++
	return Backoff
}

// ControllerState is a point-in-time snapshot of the loop, exported on
// /healthz so operators can see what the governor is doing.
type ControllerState struct {
	Limit     int     `json:"limit"`
	MinLimit  int     `json:"min_limit"`
	MaxLimit  int     `json:"max_limit"`
	RefP99MS  float64 `json:"ref_p99_ms"`
	Windows   int64   `json:"windows"`
	Increases int64   `json:"increases"`
	Backoffs  int64   `json:"backoffs"`
	Holds     int64   `json:"holds"`
}

// State snapshots the controller.
func (c *Controller) State() ControllerState {
	return ControllerState{
		Limit:     c.limit,
		MinLimit:  c.cfg.MinLimit,
		MaxLimit:  c.cfg.MaxLimit,
		RefP99MS:  c.ref / 1e6,
		Windows:   c.windows,
		Increases: c.increases,
		Backoffs:  c.backoffs,
		Holds:     c.holds,
	}
}
